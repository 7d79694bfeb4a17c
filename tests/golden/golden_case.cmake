# Runs one command line (the gridlb CLI or a report bench) in an empty
# directory and compares its stdout, its stderr and the files it writes with
# the expected outputs in tests/golden/<name>/.  A non-zero exit fails the case
# and prints the last 40 lines of stdout and all of stderr: a report bench
# prints the claim that failed (`[FAIL] ...`) on stdout.
# Registered as golden.<name> ctests by tests/CMakeLists.txt.
#
#   cmake -DEXE=<executable> -DNAME=<name> "-DARGS=<arguments>"
#         "-DFILES=<file file>" -DGOLDEN=<tests/golden> -DWORK=<dir>
#         -P golden_case.cmake
#
# stdout and stderr are stored verbatim as <name>/stdout and <name>/stderr at
# any size, so a failing case shows which printed numbers or warnings moved.
# Each exported file is stored verbatim as <name>/<file> or, above
# kDigestBytes, as its SHA-256 digest in <name>/<file>.sha256.
# With GRIDLB_REGEN_GOLDENS set in the environment the run rewrites the
# expected outputs instead of checking them (tools/regen_goldens.sh).
set(kDigestBytes 4096)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
separate_arguments(argv UNIX_COMMAND "${ARGS}")
get_filename_component(command "${EXE}" NAME)
string(STRIP "${command} ${ARGS}" command)
execute_process(COMMAND "${EXE}" ${argv}
  WORKING_DIRECTORY "${WORK}"
  RESULT_VARIABLE code OUTPUT_FILE "${WORK}/stdout" ERROR_FILE "${WORK}/stderr")
if(NOT code STREQUAL "0")
  file(READ "${WORK}/stdout" out)
  # Cut at the 41st newline from the end (the last one ends the last line).
  set(head "${out}")
  foreach(line RANGE 40)
    string(FIND "${head}" "\n" at REVERSE)
    if(at EQUAL -1)
      set(head "")
      break()
    endif()
    string(SUBSTRING "${head}" 0 ${at} head)
  endforeach()
  string(LENGTH "${head}" start)
  if(start GREATER 0)
    math(EXPR start "${start} + 1")
  endif()
  string(SUBSTRING "${out}" ${start} -1 tail)
  file(READ "${WORK}/stderr" err)
  message(FATAL_ERROR "${command}\n-- exit: ${code}\n"
    "-- stdout (last 40 lines):\n${tail}\n-- stderr:\n${err}")
endif()

set(expected "${GOLDEN}/${NAME}")
separate_arguments(files UNIX_COMMAND "${FILES}")
set(outputs stdout stderr ${files})
if(DEFINED ENV{GRIDLB_REGEN_GOLDENS})
  file(REMOVE_RECURSE "${expected}")
  file(MAKE_DIRECTORY "${expected}")
  foreach(output IN LISTS outputs)
    file(SIZE "${WORK}/${output}" bytes)
    if(bytes GREATER kDigestBytes AND NOT output MATCHES "^std(out|err)$")
      file(SHA256 "${WORK}/${output}" digest)
      file(WRITE "${expected}/${output}.sha256" "${digest}\n")
    else()
      file(COPY "${WORK}/${output}" DESTINATION "${expected}")
    endif()
  endforeach()
  return()
endif()

set(failures "")
foreach(output IN LISTS outputs)
  set(got "${WORK}/${output}")
  if(NOT EXISTS "${got}")
    string(APPEND failures "\n${output}: not written")
  elseif(EXISTS "${expected}/${output}.sha256")
    file(SHA256 "${got}" digest)
    file(STRINGS "${expected}/${output}.sha256" want LIMIT_COUNT 1)
    if(NOT digest STREQUAL want)
      string(APPEND failures
        "\n${output}: SHA-256 ${digest}, expected ${want}")
    endif()
  elseif(EXISTS "${expected}/${output}")
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files "${expected}/${output}" "${got}"
      RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      execute_process(COMMAND diff -u "${expected}/${output}" "${got}"
        OUTPUT_VARIABLE diff_text)
      string(APPEND failures "\n${output} differs:\n${diff_text}")
    endif()
  else()
    string(APPEND failures "\n${output}: no expected output in ${expected}")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "${command}${failures}\n"
    "If the change is deliberate, rewrite the goldens with "
    "tools/regen_goldens.sh and review their diff.")
endif()
