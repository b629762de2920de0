# Runs dycc --stats on fixed programs and compares its output, byte for
# byte, with tests/golden/dycc/*.txt.
#
#   cmake -DDYCC=path/to/dycc -DSOURCE_DIR=path/to/repo -P DyccStatsGolden.cmake

set(Power examples/minic/power.minic --run power 3 5 --iterations 4 --stats)
set(Hotspot examples/minic/unannotated_hotspot.minic --run main --stats)

function(check_golden Name)
  execute_process(COMMAND ${DYCC} ${ARGN}
                  WORKING_DIRECTORY ${SOURCE_DIR}
                  OUTPUT_VARIABLE Got
                  RESULT_VARIABLE Status)
  file(READ ${SOURCE_DIR}/tests/golden/dycc/${Name}.txt Want)
  if(NOT Status EQUAL 0)
    message(SEND_ERROR "${Name}: dycc exited with ${Status}")
  elseif(NOT Got STREQUAL Want)
    message(SEND_ERROR "${Name}: dycc ${ARGN}\n"
                       "--- expected\n${Want}--- got\n${Got}")
  endif()
endfunction()

check_golden(power_plain ${Power})
check_golden(power_static ${Power} --static)
check_golden(power_tier_advise ${Power} --tier --advise)
check_golden(power_tenants2 ${Power} --tenants 2)
check_golden(hotspot_speculate_advise ${Hotspot} --speculate --advise)
check_golden(hotspot_profile ${Hotspot} --profile)
