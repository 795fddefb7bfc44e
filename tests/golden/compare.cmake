# One golden check: runs the bench BENCH at AGINGSIM_BENCH_OPS=800 (the op
# count tests/golden/rebless.sh blesses at), writes its stdout to ACTUAL
# and byte-compares it with GOLDEN.
#   cmake -DBENCH=... -DGOLDEN=... -DACTUAL=... -P compare.cmake
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=AGINGSIM_CHAOS
          --unset=AGINGSIM_CHECKPOINT_DIR AGINGSIM_BENCH_OPS=800 ${BENCH}
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${ACTUAL} differs from ${GOLDEN}. If the change is "
          "intended, run tests/golden/rebless.sh and name the file and the "
          "reason in CHANGES.md.")
endif()
