# revisim_cli must refuse every malformed numeric flag value, and every
# removed flag: exit code 2 and a message naming the flag, before any
# exploration starts.
#
#   cmake -DCLI=<path to revisim_cli> -P tests/cli_bad_numbers.cmake

if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to revisim_cli>")
endif()

# expect_rejected(<flag named in the message> <revisim_cli arguments...>)
function(expect_rejected flag)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  TIMEOUT 20)
  if(NOT rc EQUAL 2)
    message(SEND_ERROR "revisim_cli ${ARGN}: exit ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "bad value for ${flag}:" at)
  if(at EQUAL -1)
    message(SEND_ERROR "revisim_cli ${ARGN}: error does not name ${flag}:\n${err}")
  endif()
endfunction()

expect_rejected(--workers dist-explore --workers abc)
expect_rejected(--max-executions explore --max-executions 1e6)
expect_rejected(--max-executions dist-explore --max-executions 18446744073709551616)
expect_rejected(--port serve --port 70000)
expect_rejected(--heartbeat-ms dist-explore --heartbeat-ms 4294967296)
expect_rejected(--max-steps explore --max-steps -1)
expect_rejected(--max-crashes explore --max-crashes " 2")
expect_rejected(--seeds --seeds 3x)
expect_rejected(--eps --eps nan)
expect_rejected("--task kset:K" --task kset:two)

# Removed flags must fail loudly (exit 2, naming the flag), never be
# silently ignored.
function(expect_unknown flag)
  execute_process(COMMAND "${CLI}" dist-explore ${flag} 4
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  TIMEOUT 20)
  if(NOT rc EQUAL 2)
    message(SEND_ERROR "revisim_cli dist-explore ${flag} 4: exit ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "unknown flag ${flag}" at)
  if(at EQUAL -1)
    message(SEND_ERROR "revisim_cli dist-explore ${flag}: error does not name it:\n${err}")
  endif()
endfunction()

expect_unknown(--shards)
expect_unknown(--fp-batch)
expect_unknown(--fp-window)

# expect_refused(<text the message must contain> <revisim_cli arguments...>):
# exit code 2 before any exploration starts.
function(expect_refused text)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  TIMEOUT 20)
  if(NOT rc EQUAL 2)
    message(SEND_ERROR "revisim_cli ${ARGN}: exit ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "${text}" at)
  if(at EQUAL -1)
    message(SEND_ERROR "revisim_cli ${ARGN}: error does not say '${text}':\n${err}")
  endif()
endfunction()

# Fork-mode flags do nothing for `serve` workers reached with --connect:
# refused by name, never silently dropped.
expect_refused("--fault applies to forked workers only"
               dist-explore --connect 127.0.0.1:7421 --fault cut_after=3)
expect_refused("--workers applies to forked workers only"
               dist-explore --workers 4 --connect 127.0.0.1:7421)
# A --connect port is digits only: host:12x is refused, not dialed as 12.
expect_refused("endpoint '127.0.0.1:12x'"
               dist-explore --connect 127.0.0.1:12x)
