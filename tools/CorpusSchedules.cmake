# Compiles the operator corpus under all four configurations and fails
# unless the printed output matches the checked-in golden file byte for
# byte. With the default --print=schedule this pins the schedules: the
# exact LP core must keep every pivot, so any change to a schedule is a
# solver regression, not noise. With --print=sim it pins the simulated
# counters and times, so a change in the lane walk shows too.
#
# Expected -D variables: TOOL (polyinject-opt path), ROOT (source root;
# the corpus path is given relative to it so the printed kernel paths
# are machine independent), GOLDEN (the expected stdout).
# Optional: PRINT (the --print mode, default "schedule") and ARGS (extra
# arguments; runs separated by "|" are made one after another and their
# stdout concatenated, e.g. "--target=v100|--target=cpu-simd").

foreach(_var TOOL ROOT GOLDEN)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "CorpusSchedules.cmake needs -D${_var}=...")
  endif()
endforeach()
if(NOT DEFINED PRINT)
  set(PRINT schedule)
endif()

function(run_corpus _extra)
  separate_arguments(_extra_args UNIX_COMMAND "${_extra}")
  execute_process(COMMAND ${TOOL} --ops-file=tools/kernels/corpus.txt
                          --config=all --print=${PRINT} --jobs=1
                          ${_extra_args}
                  WORKING_DIRECTORY ${ROOT}
                  OUTPUT_VARIABLE _out
                  ERROR_VARIABLE _err
                  RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "corpus batch ${_extra} failed (${_rc}):\n${_err}")
  endif()
  set(_actual "${_actual}${_out}" PARENT_SCOPE)
endfunction()

set(_actual "")
if(DEFINED ARGS)
  string(REPLACE "|" ";" _runs "${ARGS}")
  foreach(_run IN LISTS _runs)
    run_corpus("${_run}")
  endforeach()
else()
  run_corpus("")
endif()

file(READ ${GOLDEN} _expected)
if(NOT _actual STREQUAL _expected)
  message(FATAL_ERROR "corpus --print=${PRINT} output differs from "
                      "${GOLDEN}; regenerate it only for an intended change")
endif()

string(LENGTH "${_actual}" _len)
message(STATUS "corpus --print=${PRINT} output matches ${GOLDEN} "
               "(${_len} bytes)")
