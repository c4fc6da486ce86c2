# Runs CMD (a ;-separated command line) and passes only when it exits
# with status 2 and prints a usage line: bad command-line input must fail
# loudly instead of silently running the defaults.
#
#   cmake "-DCMD=<program>;<args...>" -P expect_usage_error.cmake
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: ")
  message(FATAL_ERROR
          "expected exit status 2 and a usage line, got '${rc}':\n"
          "${out}${err}")
endif()
message(STATUS "${err}")
