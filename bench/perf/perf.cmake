# Build hook for chronobench, the host-performance benchmark in this directory.
#
# The benchmark builds against the repo's own top-level project without editing it: this
# file is injected at the end of project(chronotier) by
#
#   cmake -S . -B build-perf -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_chronotier_INCLUDE=$PWD/bench/perf/perf.cmake
#   cmake --build build-perf --target chronobench
#
# (bench/perf/run.py does both). At that point src/ has not yet defined the ct_* targets,
# so the executable is declared in a call deferred to the end of the top-level directory.
# Release turns on the project's IPO/LTO, so the driver times the code a release user runs.

set(CHRONOBENCH_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(chronobench_add_executable)
  add_executable(chronobench "${CHRONOBENCH_SOURCE_DIR}/chronobench.cc")
  target_include_directories(chronobench PRIVATE "${CMAKE_SOURCE_DIR}")
  target_link_libraries(chronobench PRIVATE
    ct_core ct_policies ct_harness ct_tenant ct_fault ct_migration ct_trace ct_workloads
    ct_pebs ct_vm ct_mem ct_topology ct_sim ct_common)
endfunction()

cmake_language(DEFER CALL chronobench_add_executable)
