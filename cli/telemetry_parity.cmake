# CTest script: observing a run never changes it.  `neatbound_cli run`
# on the bundled consistency-sweep scenario (downsized) twice — untraced,
# and with a round trace plus a Chrome phase trace — must write summaries
# that are equal once the wall-clock `elapsed_seconds` is removed: the
# same results and every `tel_*` work counter.  The round trace must pass
# the strict reader (`neatbound_cli validate`) with one record per round
# of the window, and the Chrome trace must hold a phase ("ph":"X") event.
#
# Inputs: -DCLI_EXE, -DSPEC, -DWORK_DIR.
foreach(var CLI_EXE SPEC WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "telemetry_parity.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Runs the CLI and fails unless it exits 0; leaves its stdout in
# cli_stdout.
function(run_cli)
  execute_process(COMMAND ${CLI_EXE} ${ARGN} RESULT_VARIABLE status
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "neatbound_cli ${args} failed (${status}):\n"
      "${out}\n${err}")
  endif()
  set(cli_stdout "${out}" PARENT_SCOPE)
endfunction()

set(downsized --rounds 2000 --seeds 2 --threads 2)
run_cli(run ${SPEC} ${downsized} --json ${WORK_DIR}/untraced.json)
run_cli(run ${SPEC} ${downsized}
        --trace ${WORK_DIR}/trace.jsonl --trace-rounds 100:600
        --chrome-trace ${WORK_DIR}/chrome.json
        --json ${WORK_DIR}/traced.json)

file(READ ${WORK_DIR}/untraced.json untraced)
file(READ ${WORK_DIR}/traced.json traced)
string(JSON untraced REMOVE "${untraced}" meta elapsed_seconds)
string(JSON traced REMOVE "${traced}" meta elapsed_seconds)
string(JSON same EQUAL "${untraced}" "${traced}")
if(NOT same)
  message(FATAL_ERROR "traced summary differs from the untraced one:\n"
    "  ${WORK_DIR}/untraced.json\n  ${WORK_DIR}/traced.json")
endif()

run_cli(validate ${WORK_DIR}/trace.jsonl)
if(NOT cli_stdout MATCHES ": 501 record\\(s\\)")
  message(FATAL_ERROR "trace of rounds 100..600 should hold 501 records:\n"
    "${cli_stdout}")
endif()

file(READ ${WORK_DIR}/chrome.json chrome)
string(JSON events ERROR_VARIABLE bad LENGTH "${chrome}" traceEvents)
if(bad)
  message(FATAL_ERROR "Chrome trace has no traceEvents array: ${bad}")
endif()
if(NOT chrome MATCHES "\"ph\" *: *\"X\"")
  message(FATAL_ERROR "Chrome trace holds no phase (\"ph\":\"X\") event")
endif()
message(STATUS "telemetry parity OK: traced summary equal, "
  "501 trace records, ${events} Chrome events")
