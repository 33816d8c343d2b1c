# CTest script: the checkpoint kill-and-resume round trip.  The bundled
# adaptive sweep (downsized), interrupted after its first wave with
# `--stop-after-waves 1`, must exit 3 and leave its checkpoint on disk;
# `--resume` from that checkpoint must then write the same summary as an
# uninterrupted run once the wall-clock `elapsed_seconds` is removed.
# Two tampered copies of the checkpoint (a string `seeds_done`, an extra
# top-level key) must be refused, naming the file and the key.
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

# Resuming from `tampered` must fail and name the file and `key`.
function(expect_refused tampered key)
  execute_process(COMMAND ${CLI_EXE} ${downsized} --checkpoint ${tampered}
                          --resume
                  RESULT_VARIABLE status OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(status EQUAL 0)
    message(FATAL_ERROR "resume from ${tampered} exited 0; expected a "
      "refusal:\n${out}")
  endif()
  string(FIND "${err}" "${tampered}" path_at)
  string(FIND "${err}" "${key}" key_at)
  if(path_at EQUAL -1 OR key_at EQUAL -1)
    message(FATAL_ERROR "refusing ${tampered} should name the file and "
      "\"${key}\", got:\n${err}")
  endif()
endfunction()

file(READ ${checkpoint} text)
string(REGEX REPLACE "\"seeds_done\": ([0-9]+)" "\"seeds_done\": \"\\1\""
       string_seeds "${text}")
string(REPLACE "\"waves_done\"" "\"bogus\": 1, \"waves_done\"" extra_key
       "${text}")
if(string_seeds STREQUAL text OR extra_key STREQUAL text)
  message(FATAL_ERROR "checkpoint ${checkpoint} lacks the keys to tamper")
endif()
file(WRITE ${WORK_DIR}/string_seeds.json "${string_seeds}")
file(WRITE ${WORK_DIR}/extra_key.json "${extra_key}")
expect_refused(${WORK_DIR}/string_seeds.json "cells[0].seeds_done")
expect_refused(${WORK_DIR}/extra_key.json "unknown key \"bogus\"")

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
  "tampered copies refused, resumed summary equal to the uninterrupted one")
