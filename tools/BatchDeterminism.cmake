# Runs polyinject-opt in batch mode over the operator corpus with one
# worker and with eight, and fails unless stdout is byte-identical —
# the compilation service's determinism guarantee (reports merged by
# submission index, all nondeterministic output routed to stderr).
#
# Expected -D variables: TOOL (polyinject-opt path), OPS (corpus.txt).
# Optional: ARGS (extra arguments for both runs, e.g. "--validate").

foreach(_var TOOL OPS)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "BatchDeterminism.cmake needs -D${_var}=...")
  endif()
endforeach()
separate_arguments(_args UNIX_COMMAND "${ARGS}")

execute_process(COMMAND ${TOOL} --jobs=1 --ops-file=${OPS} ${_args}
                OUTPUT_VARIABLE _serial
                ERROR_VARIABLE _serial_err
                RESULT_VARIABLE _serial_rc)
if(NOT _serial_rc EQUAL 0)
  message(FATAL_ERROR "--jobs=1 batch failed (${_serial_rc}):\n"
                      "${_serial_err}")
endif()

execute_process(COMMAND ${TOOL} --jobs=8 --ops-file=${OPS} ${_args}
                OUTPUT_VARIABLE _parallel
                ERROR_VARIABLE _parallel_err
                RESULT_VARIABLE _parallel_rc)
if(NOT _parallel_rc EQUAL 0)
  message(FATAL_ERROR "--jobs=8 batch failed (${_parallel_rc}):\n"
                      "${_parallel_err}")
endif()

if(NOT _serial STREQUAL _parallel)
  message(FATAL_ERROR
          "batch output differs between --jobs=1 and --jobs=8")
endif()

string(LENGTH "${_serial}" _len)
if(_len EQUAL 0)
  message(FATAL_ERROR "batch produced no output")
endif()
message(STATUS "batch output byte-identical for jobs=1 and jobs=8 "
               "(${_len} bytes, ARGS \"${ARGS}\")")
