# CTest script: a CliArgs program given an unknown flag must print the
# error and its usage text on stderr and exit 2, the status neatbound_cli
# gives a usage error — not abort on an uncaught exception.
#
# Inputs: -DEXAMPLE_EXE, optionally -DBENCH_EXE.
if(NOT DEFINED EXAMPLE_EXE)
  message(FATAL_ERROR "rejects_unknown_flag.cmake: EXAMPLE_EXE not set")
endif()

foreach(exe IN ITEMS ${EXAMPLE_EXE} ${BENCH_EXE})
  execute_process(COMMAND ${exe} --bogus
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${exe} --bogus: exit ${status}, want 2\n${err}")
  endif()
  if(NOT err MATCHES "unknown flag --bogus\nflags:\n")
    message(FATAL_ERROR "${exe} --bogus: no error and usage on stderr:\n"
      "${err}")
  endif()
endforeach()
message(STATUS "unknown flags exit 2 with usage: ${EXAMPLE_EXE} ${BENCH_EXE}")
