# Frame benchmark build. It is not a project of its own: it adds bench_cycle
# to the repository's top-level build, which includes this file from
# project(gridse) when configured with
#
#   cmake --preset release -B .bench_build/release \
#         -DCMAKE_PROJECT_gridse_INCLUDE=$PWD/bench/cycle/bench_cycle.cmake
#   cmake --build .bench_build/release --target bench_cycle
#
# run.py does both. The targets are defined by a deferred call, after the
# top-level CMakeLists.txt has set every option, global compile definition and
# library, so bench_cycle is compiled exactly like the repository's bench/.
set(GRIDSE_BENCH_CYCLE_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(gridse_add_bench_cycle)
  add_executable(bench_cycle ${GRIDSE_BENCH_CYCLE_DIR}/bench_cycle.cpp)
  target_link_libraries(bench_cycle PRIVATE gridse gridse_warnings)
  target_compile_definitions(bench_cycle PRIVATE
    GRIDSE_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    GRIDSE_CXX_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}")
  set_target_properties(bench_cycle PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

  # Keeps the benchmark from rotting: every workload at --frames 2 must name
  # every metric in BENCHMARK.json and pass its correctness checks. The
  # interpreter is the one tests/CMakeLists.txt found.
  if(GRIDSE_PYTHON3)
    add_test(NAME bench_cycle_smoke
      COMMAND ${GRIDSE_PYTHON3} ${GRIDSE_BENCH_CYCLE_DIR}/smoke_test.py
              --binary $<TARGET_FILE:bench_cycle>)
    set_tests_properties(bench_cycle_smoke PROPERTIES LABELS bench TIMEOUT 900)
  endif()
endfunction()

cmake_language(DEFER CALL gridse_add_bench_cycle)
