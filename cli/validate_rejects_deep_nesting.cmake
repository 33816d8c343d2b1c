# CTest script: a hostile trace line nested 200,000 levels deep.  The
# recursive JSON parser caps nesting (support::kMaxJsonDepth), so
# `neatbound_cli validate` must exit 2 with the parser's error instead of
# overflowing its stack.
#
# Inputs: -DCLI_EXE, -DWORK_DIR.
foreach(var CLI_EXE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "validate_rejects_deep_nesting.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(trace ${WORK_DIR}/deep.jsonl)
string(REPEAT "[" 200000 line)
file(WRITE ${trace} "${line}\n")

execute_process(COMMAND ${CLI_EXE} validate ${trace} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "validate on a 200000-deep line: exit ${status}, "
    "expected 2:\n${out}\n${err}")
endif()
if(NOT err MATCHES "trace line 1: JSON parse error at 1:1025: nesting deeper than 1024 levels")
  message(FATAL_ERROR "validate on a 200000-deep line: unexpected error:\n${err}")
endif()
