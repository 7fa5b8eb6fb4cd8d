# revisim_cli must refuse every malformed numeric flag value, every removed
# flag and every world spec the registry refuses: exit code 2 and a message
# naming the flag or the spec, before any exploration starts.
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
# silently ignored.  expect_unknown(<subcommand> <flag>)
function(expect_unknown cmd flag)
  execute_process(COMMAND "${CLI}" ${cmd} ${flag} 4
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  TIMEOUT 20)
  if(NOT rc EQUAL 2)
    message(SEND_ERROR "revisim_cli ${cmd} ${flag} 4: exit ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "unknown flag ${flag}" at)
  if(at EQUAL -1)
    message(SEND_ERROR "revisim_cli ${cmd} ${flag}: error does not name it:\n${err}")
  endif()
endfunction()

expect_unknown(dist-explore --shards)
expect_unknown(dist-explore --fp-batch)
expect_unknown(dist-explore --fp-window)
# The world is one registry spec (--world name:params); its old parameter
# flags are gone.
expect_unknown(dist-explore --f)
expect_unknown(dist-explore --m)
expect_unknown(dist-explore --budget)
# Partial-order reduction is gone from both explorers.
expect_unknown(explore --por)
expect_unknown(dist-explore --por)

# expect_refused(<text the message must contain> <revisim_cli arguments...>):
# exit code 2 before any exploration starts, so no execution is counted.
function(expect_refused text)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 20)
  if(NOT rc EQUAL 2)
    message(SEND_ERROR "revisim_cli ${ARGN}: exit ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "${text}" at)
  if(at EQUAL -1)
    message(SEND_ERROR "revisim_cli ${ARGN}: error does not say '${text}':\n${err}")
  endif()
  string(FIND "${out}" "executions" at)
  if(NOT at EQUAL -1)
    message(SEND_ERROR "revisim_cli ${ARGN}: counted executions:\n${out}")
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

# A --world spec the registry refuses names the spec and the field, before
# any exploration starts (and, for dist-explore, before any worker forks).
expect_refused("\"aug-bu:2,x,6\": m must be a decimal count"
               explore --world aug-bu:2,x,6)
expect_refused("\"aug-bu:2,2\": takes f,m,budget"
               explore --world aug-bu:2,2)
expect_refused("\"aug-bu:2,2,6,1\": takes f,m,budget"
               dist-explore --world aug-bu:2,2,6,1)
expect_refused("\"sim-racing:4,3,0,0\": m must be >= 1"
               explore --world sim-racing:4,3,0,0)
expect_refused("\"nope:1\": unknown world"
               dist-explore --connect 127.0.0.1:7421 --world nope:1)

# Dedupe on the simulation world would prune unsoundly (the simulators'
# local state is not fingerprinted): refused, naming the world and dedupe.
expect_refused("sim-racing does not support dedupe"
               explore --world sim-racing:2,1,0,1 --dedupe)
expect_refused("sim-racing does not support dedupe"
               dist-explore --world sim-racing:2,1,0,1 --dedupe)
