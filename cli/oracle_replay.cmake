# CTest script: the invariant-oracle loop end to end.  A downsized
# falsification scan on the unsafe side of the neat bound must trip the
# common-prefix oracle and freeze a violation artifact; `neatbound_cli
# replay` must reproduce it bit for bit (exit 0: the violation, all 7
# honest views and the 34-record trace slice); and a copy whose format
# tag is changed must be refused by the strict reader (exit 2).
#
# Inputs: -DCLI_EXE, -DSPEC, -DWORK_DIR.
foreach(var CLI_EXE SPEC WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "oracle_replay.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(artifact ${WORK_DIR}/violation.json)

# Runs the CLI and fails unless it exits with `want`; leaves its stdout
# in cli_stdout.
function(expect_exit want)
  execute_process(COMMAND ${CLI_EXE} ${ARGN} RESULT_VARIABLE status
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL want)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "neatbound_cli ${args}: exit ${status}, "
      "expected ${want}:\n${out}\n${err}")
  endif()
  set(cli_stdout "${out}" PARENT_SCOPE)
endfunction()

expect_exit(0 run ${SPEC} --rounds 600 --threads 2 --oracle
            --oracle-dump ${artifact} --json ${WORK_DIR}/summary.json)
if(NOT EXISTS ${artifact})
  message(FATAL_ERROR "falsification scan froze no violation artifact")
endif()

expect_exit(0 replay ${artifact})
if(NOT cli_stdout MATCHES
   "reproduced .* 7 view\\(s\\) and 34 trace record\\(s\\) all bit-identical")
  message(FATAL_ERROR "replay reported something else:\n${cli_stdout}")
endif()

file(READ ${artifact} text)
string(REGEX REPLACE "\"format\":\"neatbound-violation-v[0-9]+\""
       "\"format\":\"neatbound-violation-v9\"" tampered "${text}")
if(tampered STREQUAL text)
  message(FATAL_ERROR "artifact has no format tag to tamper with")
endif()
file(WRITE ${WORK_DIR}/tampered.json "${tampered}")
expect_exit(2 replay ${WORK_DIR}/tampered.json)
message(STATUS "oracle replay OK: artifact reproduced, tampered copy refused")
