# Runs a deterministic binary and checks its stdout against the pin file:
# fails on a non-zero exit, or unless the SHA-256 of stdout equals the
# `stdout.<NAME>` value of PINS.
#
#   cmake -DBINARY=<path> -DNAME=<binary name> -DPINS=<bench/pins.json> -P check_stdout.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

execute_process(COMMAND "${BINARY}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with ${rc}")
endif()
string(SHA256 got "${out}")
file(READ "${PINS}" pins)
string(JSON want ERROR_VARIABLE missing GET "${pins}" "stdout.${NAME}")
if(missing)
  message(FATAL_ERROR "stdout.${NAME} is not pinned in ${PINS}: ${missing}")
endif()
if(NOT got STREQUAL want)
  message(FATAL_ERROR "stdout.${NAME}: SHA-256 ${got}, but ${PINS} pins ${want}")
endif()
