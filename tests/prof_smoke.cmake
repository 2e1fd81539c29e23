# Smoke test for the scoped-span profiler: run quickstart with AFL_PROFILE=1
# and a trace file, then assert
#   1. the per-span report table lands on stderr (with the hot engine spans),
#   2. the trace contains `profile` records and still validates as a whole,
#   3. a profiled run over the transport with a top-k uplink names the fl,
#      prune, net, compress and rl spans,
#   4. with AFL_PROFILE unset the run prints no profiler output at all,
#   5. AFL_PROFILE=false is not a way to say 1: the run warns and stays
#      unprofiled.
#
# Invoked by ctest as:
#   cmake -DQUICKSTART=<exe> -DVALIDATOR=<exe> -DWORK_DIR=<dir> -P prof_smoke.cmake

foreach(var QUICKSTART VALIDATOR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "prof_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(TRACE_FILE "${WORK_DIR}/prof_smoke.jsonl")

# --- profiled run -----------------------------------------------------------
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env AFL_PROFILE=1 AFL_TRACE_JSONL=${TRACE_FILE}
          AFL_LOG_LEVEL=warn "${QUICKSTART}" 3 8
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "prof_smoke: quickstart failed (${run_result}):\n${run_err}")
endif()

# The atexit report goes to stderr: header plus the engine phase spans.
if(NOT run_err MATCHES "-- profile spans")
  message(FATAL_ERROR "prof_smoke: no profile span table on stderr:\n${run_err}")
endif()
foreach(span "engine.train" "engine.aggregate" "tensor.gemm")
  if(NOT run_err MATCHES "${span}")
    message(FATAL_ERROR "prof_smoke: span '${span}' missing from report:\n${run_err}")
  endif()
endforeach()

# Trace must carry `profile` records and still satisfy the full validator.
file(READ "${TRACE_FILE}" trace_text)
if(NOT trace_text MATCHES "\"kind\":\"profile\"")
  message(FATAL_ERROR "prof_smoke: no profile records in ${TRACE_FILE}")
endif()
execute_process(
  COMMAND "${VALIDATOR}" "${TRACE_FILE}"
  RESULT_VARIABLE validate_result
  OUTPUT_VARIABLE validate_out
  ERROR_VARIABLE validate_err)
if(NOT validate_result EQUAL 0)
  message(FATAL_ERROR
          "prof_smoke: trace with profile records failed validation:\n"
          "${validate_out}${validate_err}")
endif()

# --- profiled transport run: the spans below the engine phases -------------
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env AFL_PROFILE=1 AFL_NET=1
          AFL_NET_UPLINK_CODEC=topk10 AFL_LOG_LEVEL=warn "${QUICKSTART}" 3 8
  RESULT_VARIABLE net_result
  OUTPUT_VARIABLE net_out
  ERROR_VARIABLE net_err)
if(NOT net_result EQUAL 0)
  message(FATAL_ERROR "prof_smoke: transport quickstart failed (${net_result}):\n${net_err}")
endif()
foreach(span "fl.local_train" "fl.evaluate" "fl.aggregate" "prune.prune_to_shapes"
             "net.topk_select" "net.send" "compress.encode_update"
             "rl.selection_entropy" "rl.update")
  if(NOT net_err MATCHES "\n${span} ")
    message(FATAL_ERROR "prof_smoke: span '${span}' missing from report:\n${net_err}")
  endif()
endforeach()

# --- unprofiled run: zero profiler output -----------------------------------
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env AFL_LOG_LEVEL=warn "${QUICKSTART}" 3 8
  RESULT_VARIABLE off_result
  OUTPUT_VARIABLE off_out
  ERROR_VARIABLE off_err)
if(NOT off_result EQUAL 0)
  message(FATAL_ERROR "prof_smoke: unprofiled quickstart failed (${off_result})")
endif()
if(off_err MATCHES "profile spans" OR off_err MATCHES "obs\\.prof")
  message(FATAL_ERROR
          "prof_smoke: profiler output leaked with AFL_PROFILE unset:\n${off_err}")
endif()

# --- AFL_PROFILE=false: one warning, no profile ------------------------------
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env AFL_PROFILE=false AFL_LOG_LEVEL=warn
          "${QUICKSTART}" 3 8
  RESULT_VARIABLE false_result
  OUTPUT_VARIABLE false_out
  ERROR_VARIABLE false_err)
if(NOT false_result EQUAL 0)
  message(FATAL_ERROR "prof_smoke: AFL_PROFILE=false quickstart failed (${false_result})")
endif()
if(false_err MATCHES "-- profile spans")
  message(FATAL_ERROR "prof_smoke: AFL_PROFILE=false armed the profiler:\n${false_err}")
endif()
if(NOT false_err MATCHES "AFL_PROFILE=false")
  message(FATAL_ERROR "prof_smoke: no warning naming AFL_PROFILE=false:\n${false_err}")
endif()

message(STATUS "prof_smoke: span table + profile trace records OK")
file(REMOVE_RECURSE "${WORK_DIR}")
