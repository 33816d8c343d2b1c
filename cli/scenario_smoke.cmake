# CTest script: every bundled scenario spec runs end to end.  Each
# `scenarios/*.json` (globbed, so a new spec is covered on arrival) goes
# through `neatbound_cli run` downsized to 2000 rounds x 2 seeds and must
# exit 0 with a JSON summary that parses.
#
# Inputs: -DCLI_EXE, -DSCENARIOS_DIR, -DWORK_DIR.
foreach(var CLI_EXE SCENARIOS_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "scenario_smoke.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

file(GLOB specs ${SCENARIOS_DIR}/*.json)
list(SORT specs)
list(LENGTH specs count)
if(count EQUAL 0)
  message(FATAL_ERROR "no scenario specs under ${SCENARIOS_DIR}")
endif()

foreach(spec IN LISTS specs)
  cmake_path(GET spec STEM name)
  set(summary ${WORK_DIR}/${name}.json)
  execute_process(COMMAND ${CLI_EXE} run ${spec}
                  --rounds 2000 --seeds 2 --threads 2 --json ${summary}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "neatbound_cli run ${spec} failed (${status}):\n"
      "${out}\n${err}")
  endif()
  file(READ ${summary} doc)
  string(JSON type ERROR_VARIABLE bad TYPE "${doc}")
  if(bad OR NOT type STREQUAL "OBJECT")
    message(FATAL_ERROR "${summary} is not a JSON object summary: ${bad}")
  endif()
endforeach()
message(STATUS "scenario smoke OK: ${count} spec(s) ran, summaries parse")
