# Benchmark-gate check: run one short bench_micro_kernels benchmark with
# --out, then drive `afl-insight bench` through the documented exit codes:
#   0  show on the fresh snapshot; diff of a snapshot against itself
#   2  diff against a doctored (regressed) snapshot
#   64 diff where the candidate file does not exist
#
# Invoked by ctest as:
#   cmake -DBENCH=<exe> -DINSIGHT=<exe> -DWORK_DIR=<dir> -P bench_gate_check.cmake

foreach(var BENCH INSIGHT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_gate_check: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(SNAP "${WORK_DIR}/BENCH_micro_kernels.json")

# --- produce a snapshot from one small GEMM ---------------------------------
# With AFL_PROFILE unset the bench arms the profiler itself, so the snapshot
# carries a tensor.gemm section.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=AFL_PROFILE
          "${BENCH}" --benchmark_filter=BM_Gemm/64/256/64
          --benchmark_min_time=0.01 --out "${SNAP}"
  RESULT_VARIABLE bench_result
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
if(NOT bench_result EQUAL 0)
  message(FATAL_ERROR "bench_gate_check: bench failed (${bench_result}):\n"
                      "${bench_out}${bench_err}")
endif()
if(NOT EXISTS "${SNAP}")
  message(FATAL_ERROR "bench_gate_check: --out produced no snapshot at ${SNAP}")
endif()

# --- show: snapshot parses and renders --------------------------------------
execute_process(
  COMMAND "${INSIGHT}" bench show "${SNAP}"
  RESULT_VARIABLE show_result
  OUTPUT_VARIABLE show_out
  ERROR_VARIABLE show_err)
if(NOT show_result EQUAL 0)
  message(FATAL_ERROR "bench_gate_check: bench show exited ${show_result}:\n"
                      "${show_out}${show_err}")
endif()
if(NOT show_out MATCHES "tensor\\.gemm")
  message(FATAL_ERROR "bench_gate_check: show output lacks sections:\n${show_out}")
endif()

# --- diff against itself: clean ---------------------------------------------
execute_process(
  COMMAND "${INSIGHT}" bench diff "${SNAP}" "${SNAP}"
  RESULT_VARIABLE self_result
  OUTPUT_VARIABLE self_out
  ERROR_VARIABLE self_err)
if(NOT self_result EQUAL 0)
  message(FATAL_ERROR "bench_gate_check: self-diff exited ${self_result} "
                      "(want 0):\n${self_out}${self_err}")
endif()

# --- diff against a doctored snapshot: regression, exit 2 -------------------
# Prepending a digit to every wall_seconds value inflates it ~an order of
# magnitude, which must trip the default 1.5x gate.
file(READ "${SNAP}" snap_text)
string(REPLACE "\"wall_seconds\":" "\"wall_seconds\":9" doctored "${snap_text}")
set(BAD "${WORK_DIR}/BENCH_micro_kernels_regressed.json")
file(WRITE "${BAD}" "${doctored}")
execute_process(
  COMMAND "${INSIGHT}" bench diff "${SNAP}" "${BAD}"
  RESULT_VARIABLE bad_result
  OUTPUT_VARIABLE bad_out
  ERROR_VARIABLE bad_err)
if(NOT bad_result EQUAL 2)
  message(FATAL_ERROR "bench_gate_check: doctored diff exited ${bad_result} "
                      "(want 2):\n${bad_out}${bad_err}")
endif()
if(NOT bad_out MATCHES "REGRESSION")
  message(FATAL_ERROR "bench_gate_check: doctored diff printed no REGRESSION "
                      "line:\n${bad_out}")
endif()

# ...and a loose gate lets the same snapshot pass.
execute_process(
  COMMAND "${INSIGHT}" bench diff "${SNAP}" "${BAD}" --max-time-ratio 10000
  RESULT_VARIABLE loose_result
  OUTPUT_VARIABLE loose_out
  ERROR_VARIABLE loose_err)
if(NOT loose_result EQUAL 0)
  message(FATAL_ERROR "bench_gate_check: loose-gate diff exited "
                      "${loose_result} (want 0):\n${loose_out}${loose_err}")
endif()

# --- missing candidate: usage error, exit 64 --------------------------------
execute_process(
  COMMAND "${INSIGHT}" bench diff "${SNAP}" "${WORK_DIR}/no_such.json"
  RESULT_VARIABLE miss_result
  OUTPUT_VARIABLE miss_out
  ERROR_VARIABLE miss_err)
if(NOT miss_result EQUAL 64)
  message(FATAL_ERROR "bench_gate_check: missing-file diff exited "
                      "${miss_result} (want 64):\n${miss_out}${miss_err}")
endif()

message(STATUS "bench_gate_check: snapshot + gate exit codes OK")
file(REMOVE_RECURSE "${WORK_DIR}")
