# CTest script: the repo's work-count gate.  `neatbound_cli run` on the
# bundled consistency-sweep scenario (downsized) must reproduce every
# event counter in counter_parity.json exactly.  The counts are
# deterministic from the seed and independent of --threads, so a change
# that does more work per event (one more ancestry query per adoption,
# one more calendar entry per block) fails here whatever the host's
# wall clock says.  The gate also fails on a `tel_*` key in the
# summary's meta that the file lacks, so a counter added later is gated
# from the day it lands.  A change that moves a count on purpose
# re-records the file and says why in CHANGES.md.
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

string(JSON meta_count LENGTH "${summary}" meta)
math(EXPR meta_last "${meta_count} - 1")
foreach(i RANGE ${meta_last})
  string(JSON key MEMBER "${summary}" meta ${i})
  if(key MATCHES "^tel_")
    string(JSON want ERROR_VARIABLE unlisted GET "${expected}" ${key})
    if(unlisted)
      string(JSON got GET "${summary}" meta ${key})
      string(APPEND mismatches "\n  ${key}: unlisted counter, got ${got}")
    endif()
  endif()
endforeach()

if(mismatches)
  message(FATAL_ERROR "work counts differ from ${EXPECTED}:${mismatches}\n"
    "summary: ${WORK_DIR}/counters.json")
endif()
message(STATUS "counter parity OK: ${count} work counts unchanged")
