# Runs both trace readers over one committed golden trace and keeps their
# output, for the golden_*_readers_run CTest cases:
#
#   cmake -DOAQCTL=<oaqctl> -DTRACE=<tests/data/golden_X_trace.jsonl>
#         -DSTEM=golden_X -P run_trace_readers.cmake
#
# writes STEM_trace_summary_stdout.txt, STEM_report_stdout.txt and
# STEM_report.json into the working directory. The trace is copied there
# first, so the readers print the bare file names that the commands in
# tests/data/README.md print.
get_filename_component(trace_name ${TRACE} NAME)
file(COPY ${TRACE} DESTINATION ${CMAKE_CURRENT_BINARY_DIR})
execute_process(
  COMMAND ${OAQCTL} trace-summary ${trace_name}
  OUTPUT_FILE ${STEM}_trace_summary_stdout.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace-summary ${trace_name} exited with ${rc}")
endif()
execute_process(
  COMMAND ${OAQCTL} report --trace ${trace_name} --json ${STEM}_report.json
  OUTPUT_FILE ${STEM}_report_stdout.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report --trace ${trace_name} exited with ${rc}")
endif()
