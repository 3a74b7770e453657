# Runs ${CMD} (a ;-list) and fails unless it exits with ${EXPECT}.
# A crash or any other status fails, unlike ctest's WILL_FAIL.
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT "${rc}" STREQUAL "${EXPECT}")
    message(FATAL_ERROR "expected exit ${EXPECT}, got '${rc}'")
endif()
