# Runs probft_node with the arguments in ARGS (a ;-list) and requires the
# usage exit: status 2 and "bad argument" on stderr. Used by ctest to pin
# that malformed command lines are rejected rather than silently adjusted.
#   cmake -DNODE=path/to/probft_node -DARGS="--id;1;..." -P probft_node_cli.cmake
execute_process(COMMAND ${NODE} ${ARGS}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 10)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n${err}")
endif()
if(NOT err MATCHES "bad argument")
  message(FATAL_ERROR "expected 'bad argument' on stderr, got:\n${err}")
endif()
