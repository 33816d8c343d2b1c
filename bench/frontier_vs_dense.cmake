# CTest script: adaptive frontier localization beats the dense grid.  The
# downsized Fig. 1 frontier bench must report 0 < engine_runs <
# dense_equivalent_runs, and both counts must equal the recorded ones:
# the schedule is a deterministic function of the seeds, so any change
# to either count is a change in behaviour.
#
# Inputs: -DBENCH_EXE, -DWORK_DIR, -DENGINE_RUNS, -DDENSE_RUNS.
foreach(var BENCH_EXE WORK_DIR ENGINE_RUNS DENSE_RUNS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "frontier_vs_dense.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(summary ${WORK_DIR}/frontier.json)

execute_process(COMMAND ${BENCH_EXE}
                --rounds 1500 --min-seeds 3 --batch 3 --max-seeds 12
                --tolerance 0.1 --threads 2 --json ${summary}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "frontier bench failed (${status}):\n${out}\n${err}")
endif()

file(READ ${summary} doc)
string(JSON runs GET "${doc}" meta engine_runs)
string(JSON dense GET "${doc}" meta dense_equivalent_runs)
if(NOT (runs GREATER 0 AND runs LESS dense))
  message(FATAL_ERROR "frontier localization did not beat the dense grid: "
    "engine_runs=${runs} dense_equivalent_runs=${dense}")
endif()
if(NOT runs EQUAL ENGINE_RUNS OR NOT dense EQUAL DENSE_RUNS)
  message(FATAL_ERROR "run counts changed: engine_runs=${runs} "
    "(recorded ${ENGINE_RUNS}), dense_equivalent_runs=${dense} "
    "(recorded ${DENSE_RUNS})")
endif()
message(STATUS "frontier OK: ${runs} engine runs vs ${dense} for the "
  "dense grid")
