# Run BENCH, write its stdout to OUT, and fail unless it is byte-identical to
# GOLDEN (printing the diff). Usage:
#   cmake -DBENCH=<exe> -DGOLDEN=<file> -DOUT=<file> -P compare_golden.cmake
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u ${GOLDEN} ${OUT})
  message(FATAL_ERROR "output differs from ${GOLDEN} (diff above)")
endif()
