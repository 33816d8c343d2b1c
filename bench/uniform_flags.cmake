# CTest script: the benches that print analytic tables take the uniform
# bench flags too.  Each must exit 0 under --threads 2 --json PATH and
# write a JSON summary that parses and names the bench.
#
# Inputs: -DBENCH_DIR (the built benches), -DWORK_DIR, -DBENCHES (a
# ;-list of bench names).
foreach(var BENCH_DIR WORK_DIR BENCHES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "uniform_flags.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

foreach(bench IN LISTS BENCHES)
  set(summary ${WORK_DIR}/${bench}.json)
  execute_process(COMMAND ${BENCH_DIR}/${bench} --threads 2 --json ${summary}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${bench} --threads 2 --json failed (${status}):\n"
      "${out}\n${err}")
  endif()
  file(READ ${summary} doc)
  string(JSON name ERROR_VARIABLE parse_error GET "${doc}" bench)
  if(parse_error)
    message(FATAL_ERROR "${bench}: ${summary} does not parse: ${parse_error}")
  endif()
  if(NOT name STREQUAL bench)
    message(FATAL_ERROR "${bench}: summary names bench '${name}'")
  endif()
endforeach()
message(STATUS "uniform flags OK: ${BENCHES}")
