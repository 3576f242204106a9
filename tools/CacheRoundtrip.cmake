# Cold/warm cache smoke for polyinject-opt batch mode: compiles the
# corpus twice against the same --cache-dir. The first (cold) run must
# report zero hits, the second (warm) run a hit for every operator, and
# both runs must agree on every schedule and simulated time (the cache
# section of stdout aside, the bytes are identical). Neither run may
# print validated=no: with --validate in ARGS, the warm run validates the
# replayed schedules, which the pipeline did not just build.
#
# Expected -D variables: TOOL, OPS, CACHE_DIR.
# Optional: ARGS (extra arguments for both runs, e.g. "--validate").

foreach(_var TOOL OPS CACHE_DIR)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "CacheRoundtrip.cmake needs -D${_var}=...")
  endif()
endforeach()
separate_arguments(_args UNIX_COMMAND "${ARGS}")

file(REMOVE_RECURSE ${CACHE_DIR})

foreach(_run cold warm)
  execute_process(COMMAND ${TOOL} --cache-dir=${CACHE_DIR}
                          --ops-file=${OPS} ${_args}
                  OUTPUT_VARIABLE _${_run}
                  ERROR_VARIABLE _err
                  RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "${_run} batch failed (${_rc}):\n${_err}")
  endif()
  if(_${_run} MATCHES "validated=no")
    message(FATAL_ERROR "${_run} run did not validate:\n${_${_run}}")
  endif()
endforeach()

if(NOT _cold MATCHES "batch summary: ([0-9]+) operators.*, 0 cache hits")
  message(FATAL_ERROR "cold run reported unexpected hits:\n${_cold}")
endif()
set(_total ${CMAKE_MATCH_1})

if(NOT _warm MATCHES "batch summary: .*, ${_total} cache hits")
  message(FATAL_ERROR
          "warm run did not hit for all ${_total} operators:\n${_warm}")
endif()

# Hits must replay byte-identical compilations: outside the per-operator
# cache annotations, the two outputs agree exactly.
foreach(_run cold warm)
  string(REGEX REPLACE " cache=(hit|miss)" "" _${_run}_norm "${_${_run}}")
  string(REGEX REPLACE ", [0-9]+ cache hits" "" _${_run}_norm
         "${_${_run}_norm}")
endforeach()
if(NOT _cold_norm STREQUAL _warm_norm)
  message(FATAL_ERROR "warm batch output differs from cold beyond the "
                      "cache annotations")
endif()

file(REMOVE_RECURSE ${CACHE_DIR})
message(STATUS "cache round trip: ${_total} operators, warm run hit all "
               "(ARGS \"${ARGS}\")")
