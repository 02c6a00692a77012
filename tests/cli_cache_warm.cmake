# `lrsizer serve --cache-warm` is accepted but ignored: it notes so on
# stderr, and the responses equal those of a server started without it
# (wall-clock fields blanked, lines sorted — accepted/result interleaving
# is not ordered across requests). The second request re-sizes the first
# one's circuit under other bounds — the case the retired flag used to seed.
#
#   cmake -DLRSIZER=<path to lrsizer> -DWORK=<scratch dir> -P cli_cache_warm.cmake
file(MAKE_DIRECTORY "${WORK}")
set(requests "${WORK}/requests.jsonl")
file(WRITE "${requests}"
  "{\"type\":\"size\",\"id\":\"base\",\"input\":{\"profile\":\"c17\"},\"options\":{\"vectors\":8},\"sizes\":true}\n"
  "{\"type\":\"size\",\"id\":\"tweak\",\"input\":{\"profile\":\"c17\"},\"options\":{\"vectors\":8,\"noise_bound\":0.12,\"delay_bound\":1.02},\"sizes\":true}\n")

function(serve out_var err_var)
  execute_process(COMMAND "${LRSIZER}" serve --jobs 1 ${ARGN}
                  INPUT_FILE "${requests}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lrsizer serve ${ARGN} exited ${rc}: ${err}")
  endif()
  string(REGEX REPLACE "\"([a-z0-9_]*seconds)\":[-+.eE0-9]+" "\"\\1\":0" out "${out}")
  string(REGEX REPLACE "\n$" "" out "${out}")
  string(REPLACE "\n" ";" lines "${out}")
  list(SORT lines)
  set(${out_var} "${lines}" PARENT_SCOPE)
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

serve(plain plain_err)
serve(warm warm_err --cache-warm)
if(NOT warm_err MATCHES "--cache-warm is deprecated and ignored")
  message(FATAL_ERROR "no deprecation note on stderr: ${warm_err}")
endif()
if(plain_err MATCHES "deprecated")
  message(FATAL_ERROR "deprecation note without the flag: ${plain_err}")
endif()
if(NOT plain STREQUAL warm)
  message(FATAL_ERROR "--cache-warm changed the output:\n${plain}\n---\n${warm}")
endif()
list(LENGTH plain count)
if(count LESS 5)
  message(FATAL_ERROR "expected hello + 2 accepted + 2 results, got: ${plain}")
endif()
