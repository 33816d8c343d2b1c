# CTest script: the per-view event counters of `neatbound_cli run` on the
# bundled consistency-sweep scenario (downsized) must equal the recorded
# values in counter_parity.json, which an engine holding one MinerView
# per honest player produced.  View classes deliver once per class but
# count once per member, so every per-view counter reads exactly as
# before.  Two counters are left out on purpose: calendar_scheduled
# (calendar entries are runs of recipients) and ancestry_queries (one
# longest-chain comparison per class), which the classes lower.  A change
# that moves any recorded counter on purpose re-records the file and says
# why.
#
# Inputs: -DCLI_EXE, -DSPEC, -DEXPECTED, -DWORK_DIR.
foreach(var CLI_EXE SPEC EXPECTED WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "counter_parity.cmake: ${var} not set")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
  COMMAND ${CLI_EXE} run ${SPEC} --rounds 6000 --seeds 2 --threads 2
          --json ${WORK_DIR}/counters.json
  RESULT_VARIABLE cli_status
  OUTPUT_VARIABLE cli_stdout
  ERROR_VARIABLE cli_stderr)
if(NOT cli_status EQUAL 0)
  message(FATAL_ERROR "neatbound_cli run failed (${cli_status}):\n"
    "${cli_stdout}\n${cli_stderr}")
endif()

file(READ ${WORK_DIR}/counters.json summary)
file(READ ${EXPECTED} expected)
string(JSON count LENGTH "${expected}")
math(EXPR last "${count} - 1")
set(mismatches "")
foreach(i RANGE ${last})
  string(JSON key MEMBER "${expected}" ${i})
  string(JSON want GET "${expected}" ${key})
  string(JSON got ERROR_VARIABLE missing GET "${summary}" meta ${key})
  if(missing OR NOT got STREQUAL want)
    string(APPEND mismatches "\n  ${key}: expected ${want}, got ${got}")
  endif()
endforeach()
if(mismatches)
  message(FATAL_ERROR "per-view counters moved:${mismatches}\n"
    "summary: ${WORK_DIR}/counters.json")
endif()
message(STATUS "counter parity OK: ${count} per-view counters unchanged")
