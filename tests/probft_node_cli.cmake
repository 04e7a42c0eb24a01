# Runs NODE (probft_node or probft_client) with the arguments in ARGS (a
# ;-list) and requires the usage exit: status 2 and a stderr matching
# EXPECT (default "bad argument"). Used by ctest to pin that malformed
# command lines are rejected rather than silently adjusted.
#   cmake -DNODE=path/to/probft_node -DARGS="--id;1;..." [-DEXPECT=regex]
#         -P probft_node_cli.cmake
if(NOT DEFINED EXPECT)
  set(EXPECT "bad argument")
endif()
execute_process(COMMAND ${NODE} ${ARGS}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 10)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "expected '${EXPECT}' on stderr, got:\n${err}")
endif()
