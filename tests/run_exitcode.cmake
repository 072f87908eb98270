# Run TOOL with ARGS (a single space-separated string) and require the
# exact exit code EXPECTED. Plain ctest entries can only distinguish
# zero from non-zero (WILL_FAIL), so the metrics_diff exit-code contract
# (0 ok / 1 mismatch / 2 usage / 3 baseline missing / 4 candidate
# missing) is asserted through this script. An optional EXPECT_OUT regex
# must also match the tool's stdout, so a fixture that trips one rule
# cannot pass on the strength of another.
if(NOT DEFINED TOOL OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "run_exitcode.cmake: TOOL and EXPECTED are required")
endif()
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${arg_list}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL ${EXPECTED})
  message(FATAL_ERROR
    "${TOOL} ${ARGS}: expected exit ${EXPECTED}, got ${rc}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_OUT AND NOT out MATCHES "${EXPECT_OUT}")
  message(FATAL_ERROR
    "${TOOL} ${ARGS}: stdout does not match '${EXPECT_OUT}'\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
