# CTest script: the checkpoint kill-and-resume round trip.  The bundled
# adaptive sweep (downsized), interrupted after its first wave with
# `--stop-after-waves 1`, must exit 3 and leave its checkpoint on disk;
# `--resume` from that checkpoint must then write the same summary as an
# uninterrupted run once the wall-clock `elapsed_seconds` is removed.
#
# Inputs: -DCLI_EXE, -DSPEC, -DWORK_DIR.
foreach(var CLI_EXE SPEC WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "checkpoint_resume.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(checkpoint ${WORK_DIR}/ck.json)

# Runs the CLI and fails unless it exits with `want`.
function(expect_exit want)
  execute_process(COMMAND ${CLI_EXE} ${ARGN} RESULT_VARIABLE status
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL want)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "neatbound_cli ${args}: exit ${status}, "
      "expected ${want}:\n${out}\n${err}")
  endif()
endfunction()

set(downsized run ${SPEC} --rounds 1500 --threads 2)
expect_exit(3 ${downsized} --checkpoint ${checkpoint} --stop-after-waves 1
            --json ${WORK_DIR}/interrupted.json)
if(NOT EXISTS ${checkpoint})
  message(FATAL_ERROR "interrupted run left no checkpoint at ${checkpoint}")
endif()
expect_exit(0 ${downsized} --checkpoint ${checkpoint} --resume
            --json ${WORK_DIR}/resumed.json)
expect_exit(0 ${downsized} --json ${WORK_DIR}/uninterrupted.json)

file(READ ${WORK_DIR}/resumed.json resumed)
file(READ ${WORK_DIR}/uninterrupted.json uninterrupted)
string(JSON resumed REMOVE "${resumed}" meta elapsed_seconds)
string(JSON uninterrupted REMOVE "${uninterrupted}" meta elapsed_seconds)
string(JSON same EQUAL "${resumed}" "${uninterrupted}")
if(NOT same)
  message(FATAL_ERROR "resumed summary differs from the uninterrupted one:\n"
    "  ${WORK_DIR}/resumed.json\n  ${WORK_DIR}/uninterrupted.json")
endif()
message(STATUS "checkpoint resume OK: interrupted after 1 wave (exit 3), "
  "resumed summary equal to the uninterrupted one")
