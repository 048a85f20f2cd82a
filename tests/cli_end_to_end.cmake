# Drives wsk_cli through generate -> topk -> whynot -> explain -> trace ->
# statsz -> profiles -> serve -> live -> inspect.
set(csv "${WORK_DIR}/cli_e2e.csv")
execute_process(COMMAND ${CLI} generate --out ${csv} --objects 2000
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed: ${out}")
endif()
execute_process(COMMAND ${CLI} topk --data ${csv} --x 0.5 --y 0.5
                        --keywords "term1 term3" --k 5
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "top-5")
  message(FATAL_ERROR "topk failed: ${out}")
endif()
# Malformed top-k input answers with a usage error (exit 2), not a crash;
# a numeric flag must parse whole.
foreach(bad_flag "--k;-1" "--alpha;nan" "--x;inf" "--k;abc" "--alpha;0.5x")
  execute_process(COMMAND ${CLI} topk --data ${csv} --keywords "term1 term3"
                          ${bad_flag}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "topk ${bad_flag} exited ${rc}: ${out}${err}")
  endif()
endforeach()
execute_process(COMMAND ${CLI} whynot --data ${csv} --x 0.5 --y 0.5
                        --keywords "term1 term3" --k 3 --missing 42
                        --algorithm advanced
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "whynot failed: ${out}")
endif()
execute_process(COMMAND ${CLI} explain --data ${csv} --x 0.5 --y 0.5
                        --keywords "term1 term3" --k 3 --missing 42
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "explain failed: ${out}")
endif()
# trace: exported profile must be Chrome trace-event JSON with the root
# query span, and the console summary must show the stage table.
set(trace_json "${WORK_DIR}/cli_e2e_trace.json")
execute_process(COMMAND ${CLI} trace --data ${csv} --x 0.5 --y 0.5
                        --keywords "term1 term3" --k 3 --missing 42
                        --algorithm advanced --out ${trace_json}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "trace:")
  message(FATAL_ERROR "trace failed: ${out}")
endif()
file(READ ${trace_json} trace_content)
if(NOT trace_content MATCHES "\"traceEvents\":\\[" OR
   NOT trace_content MATCHES "\"name\":\"query\"")
  message(FATAL_ERROR "trace output is not a Chrome trace profile")
endif()
file(REMOVE ${trace_json})
# statsz: Prometheus text exposition with request counters and at least
# one per-stage histogram absorbed from the per-query traces.
execute_process(COMMAND ${CLI} statsz --data ${csv} --random 20 --repeat 2
                        --seed 7
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "wsk_requests_total" OR
   NOT out MATCHES "wsk_stage_query_ms_bucket" OR
   NOT out MATCHES "wsk_window_request_rate{window=\"60s\"}" OR
   NOT out MATCHES "wsk_build_info{version=" OR
   NOT out MATCHES "wsk_trace_dropped_events_total" OR
   NOT out MATCHES "wsk_process_uptime_seconds")
  message(FATAL_ERROR "statsz failed: ${out}")
endif()
# statsz --top: the live dashboard mode over a mutating segmented backend;
# frames must show per-window rates and the background-merge counters.
execute_process(COMMAND ${CLI} statsz --data ${csv} --random 10 --seed 7
                        --live --mutations 150 --delta 32
                        --top --frames 2 --interval-ms 50
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "frame 2/2" OR
   NOT out MATCHES "window\\.1s +requests" OR NOT out MATCHES "compaction +merges" OR
   NOT out MATCHES "telemetry observed")
  message(FATAL_ERROR "statsz --top failed: ${out}")
endif()
# profiles: every request sampled; the listing shows retained profiles and
# the dump is a loadable Chrome trace.
set(profile_json "${WORK_DIR}/cli_e2e_profile.json")
execute_process(COMMAND ${CLI} profiles --data ${csv} --random 8 --seed 7
                        --dump ${profile_json}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "8 sampled profiles" OR
   NOT out MATCHES "\\[sampled\\]" OR NOT out MATCHES "wrote profile")
  message(FATAL_ERROR "profiles failed: ${out}")
endif()
file(READ ${profile_json} profile_content)
if(NOT profile_content MATCHES "\"traceEvents\":\\[")
  message(FATAL_ERROR "profiles dump is not a Chrome trace profile")
endif()
file(REMOVE ${profile_json})
execute_process(COMMAND ${CLI} serve --data ${csv} --random 30 --workers 4
                        --repeat 2 --seed 7
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "served" OR NOT out MATCHES "cache")
  message(FATAL_ERROR "serve failed: ${out}")
endif()
# serve with a forced-slow threshold: every request lands in the slow log;
# the console lists the records and the JSONL sink holds structured lines
# whose stage breakdown explains the recorded wall.
set(slow_jsonl "${WORK_DIR}/cli_e2e_slow.jsonl")
execute_process(COMMAND ${CLI} serve --data ${csv} --random 10 --workers 2
                        --seed 7 --slow-min-ms 0.001 --slow-factor 0
                        --slow-log ${slow_jsonl}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "slow  #")
  message(FATAL_ERROR "serve --slow-log failed: ${out}")
endif()
file(READ ${slow_jsonl} slow_content)
if(NOT slow_content MATCHES "\"slow\":true" OR
   NOT slow_content MATCHES "\"wall_ms\":" OR
   NOT slow_content MATCHES "\"stages\":{")
  message(FATAL_ERROR "slow-query JSONL malformed: ${slow_content}")
endif()
file(REMOVE ${slow_jsonl})
# serve --shards: the same workload through the scatter-gather
# ShardCoordinator (docs/SHARDING.md); the metrics report must carry the
# aggregate and per-shard counters.
execute_process(COMMAND ${CLI} serve --data ${csv} --random 30 --workers 4
                        --repeat 2 --seed 7 --shards 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "served" OR
   NOT out MATCHES "shards    count 2" OR NOT out MATCHES "shard.0")
  message(FATAL_ERROR "serve --shards failed: ${out}")
endif()
# A shard count above the merged walk's segment capacity is refused with a
# message and exit 1, not a signal (RESULT_VARIABLE is then not a number).
execute_process(COMMAND ${CLI} serve --data ${csv} --random 20 --seed 7
                        --workers 1 --shards 70
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "num_shards must lie in")
  message(FATAL_ERROR "serve --shards 70 exited ${rc}: ${out}${err}")
endif()
# live: mutations stream through the segmented backend while queries run;
# the final report must carry the segment counters and a dataset version.
execute_process(COMMAND ${CLI} live --data ${csv} --random 30 --workers 2
                        --mutations 150 --delta 64 --seed 7
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "dataset version" OR
   NOT out MATCHES "segments")
  message(FATAL_ERROR "live failed: ${out}")
endif()
# The mutation stream never deletes an object a why-not request names as
# missing, so every request answers OK: on this file and seed the stream
# would otherwise delete one at its ninth mutation.
set(live_csv "${WORK_DIR}/cli_e2e_live.csv")
execute_process(COMMAND ${CLI} generate --out ${live_csv} --objects 2000
                        --vocab 80 --seed 7
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate for live failed: ${out}")
endif()
execute_process(COMMAND ${CLI} live --data ${live_csv} --random 20 --workers 2
                        --mutations 150 --delta 64 --seed 7
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "live --random 20 exited ${rc}: ${out}")
endif()
# inspect: layout histograms for both formats; the v2+mmap run must report
# the v2 format byte, the map marker, and per-level lines down to the
# leaves.
execute_process(COMMAND ${CLI} inspect --data ${csv} --format v2 --mmap 1
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "setr: format v2" OR
   NOT out MATCHES "kcr: format v2" OR NOT out MATCHES "\\[mmap\\]" OR
   NOT out MATCHES "\\(leaf\\)")
  message(FATAL_ERROR "inspect v2 failed: ${out}")
endif()
execute_process(COMMAND ${CLI} inspect --data ${csv} --format v1
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "setr: format v1" OR
   out MATCHES "\\[mmap\\]")
  message(FATAL_ERROR "inspect v1 failed: ${out}")
endif()
# inspect --index: a SetR and a KcR file of the current format, written
# outside the CLI, are recognized by their meta-page magic and inspected.
set(setr_idx "${WORK_DIR}/cli_e2e_setr.idx")
set(kcr_idx "${WORK_DIR}/cli_e2e_kcr.idx")
execute_process(COMMAND ${INDEX_WRITER} ${csv} ${setr_idx} ${kcr_idx}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "write_index_files failed: ${out}${err}")
endif()
foreach(kind setr kcr)
  execute_process(COMMAND ${CLI} inspect --index ${${kind}_idx}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "${kind}: format v" OR
     NOT out MATCHES "\\(leaf\\)")
    message(FATAL_ERROR "inspect --index ${kind} exited ${rc}: ${out}${err}")
  endif()
endforeach()
file(REMOVE ${setr_idx} ${kcr_idx})
file(REMOVE ${csv})
