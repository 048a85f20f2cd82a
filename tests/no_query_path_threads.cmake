# Fails when src/ constructs a ThreadPool anywhere but the two owners of
# threads: src/common/thread_pool.cc (the shared executor) and
# src/service/query_service.cc (the request workers). Every other parallel
# site borrows the executor through ParallelFor, so no thread is created
# per query, per batch or per shard.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/no_query_path_threads.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT SRC_DIR)
  message(FATAL_ERROR "pass -DSRC_DIR=<repository>/src")
endif()
set(allowed "common/thread_pool.cc" "service/query_service.cc")
# `ThreadPool pool(`, `ThreadPool pool{`, `make_unique<ThreadPool>`,
# `make_shared<ThreadPool>` and `new ThreadPool`.
set(pattern
    "ThreadPool[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*[({]|make_(unique|shared)<ThreadPool>|new[ \t]+ThreadPool")

file(GLOB_RECURSE sources RELATIVE ${SRC_DIR} ${SRC_DIR}/*.cc ${SRC_DIR}/*.h)
list(SORT sources)
set(violations "")
foreach(source IN LISTS sources)
  if(source IN_LIST allowed)
    continue()
  endif()
  file(READ ${SRC_DIR}/${source} text)
  # One list element per line: neutralize the characters CMake lists
  # treat specially, then split at newlines.
  string(REPLACE ";" "," text "${text}")
  string(REPLACE "[" "(" text "${text}")
  string(REPLACE "]" ")" text "${text}")
  string(REPLACE "\\" "/" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(number 0)
  foreach(line IN LISTS lines)
    math(EXPR number "${number} + 1")
    string(REGEX REPLACE "//.*" "" code "${line}")
    if(code MATCHES "${pattern}")
      string(STRIP "${line}" line)
      string(APPEND violations "\n  src/${source}:${number}: ${line}")
    endif()
  endforeach()
endforeach()
if(violations)
  message(FATAL_ERROR
          "ThreadPool constructed outside the executor and the request "
          "workers (use ParallelFor or SharedExecutor()):${violations}")
endif()
list(LENGTH sources count)
message(STATUS "no ThreadPool construction outside the executor and the "
               "request workers (${count} files)")
