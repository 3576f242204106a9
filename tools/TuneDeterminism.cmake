# Runs polyinject-opt in batch mode over the operator corpus with
# autotuning enabled, once with one worker and once with eight, and
# fails unless stdout is byte-identical — the autotuner's determinism
# guarantee (analytic scores, fixed candidate order, lexicographic
# tie-breaks, per-candidate budgets measured in work units rather than
# wall-clock), on top of the batch compiler's own ordering guarantee.
#
# A third run replays the first run's tuning database and must print
# the same per-operator tuned= decisions.
#
# Two flag sets run: an exhaustive search of the tiny space, and a
# greedy search of the default space, whose solver-budget tier
# dimension exercises the evaluator's cross-tier schedule reuse.
#
# Expected -D variables: TOOL (polyinject-opt path), OPS (corpus.txt),
# TUNE_DB (scratch database file path).

foreach(_var TOOL OPS TUNE_DB)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "TuneDeterminism.cmake needs -D${_var}=...")
  endif()
endforeach()

# Checks one flag set; \p db is its scratch database path.
function(check_tune_determinism name db)
  set(_flags ${ARGN})
  file(REMOVE ${db})

  execute_process(COMMAND ${TOOL} --jobs=1 --tuning-db=${db}
                          ${_flags} --ops-file=${OPS}
                  OUTPUT_VARIABLE _serial
                  ERROR_VARIABLE _serial_err
                  RESULT_VARIABLE _serial_rc)
  if(NOT _serial_rc EQUAL 0)
    message(FATAL_ERROR "[${name}] --jobs=1 tuned batch failed "
                        "(${_serial_rc}):\n${_serial_err}")
  endif()

  # The second run must not see the first run's database: searching and
  # replaying are different code paths, and this test pins the search.
  file(REMOVE ${db}.jobs8)
  execute_process(COMMAND ${TOOL} --jobs=8 --tuning-db=${db}.jobs8
                          ${_flags} --ops-file=${OPS}
                  OUTPUT_VARIABLE _parallel
                  ERROR_VARIABLE _parallel_err
                  RESULT_VARIABLE _parallel_rc)
  if(NOT _parallel_rc EQUAL 0)
    message(FATAL_ERROR "[${name}] --jobs=8 tuned batch failed "
                        "(${_parallel_rc}):\n${_parallel_err}")
  endif()

  if(NOT _serial STREQUAL _parallel)
    message(FATAL_ERROR
            "[${name}] tuned batch output differs between --jobs=1 and "
            "--jobs=8")
  endif()

  # Warm replay over the jobs=1 database: byte-identical stdout again
  # (tuned= lines show only the chosen encoding, which the database must
  # reproduce exactly).
  execute_process(COMMAND ${TOOL} --jobs=8 --tuning-db=${db}
                          ${_flags} --ops-file=${OPS}
                  OUTPUT_VARIABLE _warm
                  ERROR_VARIABLE _warm_err
                  RESULT_VARIABLE _warm_rc)
  if(NOT _warm_rc EQUAL 0)
    message(FATAL_ERROR "[${name}] warm tuned batch failed (${_warm_rc}):\n"
                        "${_warm_err}")
  endif()
  if(NOT _serial STREQUAL _warm)
    message(FATAL_ERROR "[${name}] warm tuning-db replay changed batch "
                        "output")
  endif()

  string(LENGTH "${_serial}" _len)
  if(_len EQUAL 0)
    message(FATAL_ERROR "[${name}] tuned batch produced no output")
  endif()
  string(FIND "${_serial}" " tuned=" _tuned_at)
  if(_tuned_at EQUAL -1)
    message(FATAL_ERROR "[${name}] tuned batch output carries no tuned= "
                        "summaries")
  endif()
  message(STATUS "[${name}] tuned batch output byte-identical for jobs=1, "
                 "jobs=8 and warm replay (${_len} bytes)")
endfunction()

check_tune_determinism(tiny ${TUNE_DB}
  --autotune=exhaustive --tune-space=tiny --tune-budget=16
  --config=infl --print=sim)
check_tune_determinism(default ${TUNE_DB}.default
  --autotune=greedy --tune-space=default --tune-budget=16
  --config=infl --print=sim)
