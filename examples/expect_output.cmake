# Runs CMD (a ;-separated command line) and passes only when it exits
# with status 0 and its standard output matches every regex in EXPECT
# and none in REJECT (each a ;-separated list, either may be empty).
#
#   cmake "-DCMD=<program>;<args...>" "-DEXPECT=<regex>;..."
#         "-DREJECT=<regex>;..." -P expect_output.cmake
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 300)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "expected exit status 0, got '${rc}':\n${out}${err}")
endif()
foreach(re IN LISTS EXPECT)
  if(NOT out MATCHES "${re}")
    message(FATAL_ERROR "output does not match '${re}':\n${out}")
  endif()
endforeach()
foreach(re IN LISTS REJECT)
  if(out MATCHES "${re}")
    message(FATAL_ERROR "output matches rejected '${re}':\n${out}")
  endif()
endforeach()
message(STATUS "${out}")
