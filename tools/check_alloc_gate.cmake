# Runs the event hot path's allocation gates in bench_sim_micro and fails
# on a non-zero exit, on a gate with no console line, or on a gate line
# without `allocs_per_event=0` followed by a non-digit. The binary writes
# BENCH_sim_micro.json into its working directory, so it runs in WORKDIR.
#
#   cmake -DBINARY=<bench_sim_micro> -DWORKDIR=<scratch dir> -P check_alloc_gate.cmake
cmake_minimum_required(VERSION 3.16)

# The post/drain path on a small heap, the same churn with 32k far timers
# pending, a fluid completion timer re-keyed on every re-solve, and the
# Notifier/Barrier wake-up cycle with its task frames.
set(gates BM_PostHotPath BM_PostFarHorizon BM_FluidTimerRearm BM_WakeCycle)
string(REPLACE ";" "|" filter "${gates}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BINARY}" "--benchmark_filter=^(${filter})$"
                        --benchmark_min_time=0.01
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_sim_micro exited with ${rc}:\n${out}")
endif()
foreach(gate IN LISTS gates)
  string(REGEX MATCHALL "${gate}[^\n]*" lines "${out}")
  if(NOT lines)
    message(FATAL_ERROR "no ${gate} line in the bench_sim_micro output:\n${out}")
  endif()
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "allocs_per_event=0([^.0-9]|$)")
      message(FATAL_ERROR "${gate} allocates on the event hot path: ${line}")
    endif()
  endforeach()
endforeach()
