# Compiles the operator corpus under all four configurations and fails
# unless the printed schedules match the checked-in golden file
# byte for byte. The exact LP core must keep every pivot, so any
# change to a schedule is a solver regression, not noise.
#
# Expected -D variables: TOOL (polyinject-opt path), ROOT (source root;
# the corpus path is given relative to it so the printed kernel paths
# are machine independent), GOLDEN (the expected stdout).

foreach(_var TOOL ROOT GOLDEN)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "CorpusSchedules.cmake needs -D${_var}=...")
  endif()
endforeach()

execute_process(COMMAND ${TOOL} --ops-file=tools/kernels/corpus.txt
                        --config=all --print=schedule --jobs=1
                WORKING_DIRECTORY ${ROOT}
                OUTPUT_VARIABLE _actual
                ERROR_VARIABLE _err
                RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "corpus batch failed (${_rc}):\n${_err}")
endif()

file(READ ${GOLDEN} _expected)
if(NOT _actual STREQUAL _expected)
  message(FATAL_ERROR "corpus schedules differ from ${GOLDEN}; regenerate "
                      "it only for an intended schedule change")
endif()

string(LENGTH "${_actual}" _len)
message(STATUS "corpus schedules match ${GOLDEN} (${_len} bytes)")
