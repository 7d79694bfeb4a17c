# Runs one gridlb command line and checks how it reports a user error or a
# help request.  Registered as ctest cases by tests/CMakeLists.txt.
#
#   cmake -DCLI=<gridlb> -DARGS="<arguments>" -DEXIT=0 -P cli_case.cmake
#       the usage on stdout, exit 0 (help)
#   cmake -DCLI=<gridlb> -DARGS="<arguments>" -DEXIT=2
#         "-DMESSAGE=<text>" -P cli_case.cmake
#       "error: <text>" and then the usage on stderr, exit 2
#   cmake -DCLI=<gridlb> -DARGS="<arguments>" -DEXIT=1
#         "-DMESSAGE=<text>" -P cli_case.cmake
#       a run that fails before it starts, or whose outputs cannot be
#       written after it: "error: <text>" on stderr, no usage, nothing on
#       stdout, exit 1
#   cmake -DCLI=<gridlb> -DARGS="<arguments>" -DEXIT=2
#         "-DRETIRED=--a --b" -P cli_case.cmake
#       for each retired flag: "<arguments> --a 1" fails with
#       "error: unknown flag --a" and then the usage, exit 2
#   cmake -DCLI=<gridlb> -DARGS="<arguments>" -DEXIT=1
#         "-DSTDERR=<text>" -P cli_case.cmake
#       a run whose own check fails, or no command: stderr starts with
#       <text> (a `FAIL: ...` line, or the usage), exit 1
#
# In every case stderr must not carry assertion text: a user error is not a
# gridlb bug.
function(check_case args message)
  separate_arguments(argv UNIX_COMMAND "${args}")
  execute_process(COMMAND "${CLI}" ${argv}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(context "gridlb ${args}\n-- exit: ${code}\n-- stdout:\n${out}\n-- stderr:\n${err}")

  if(NOT code STREQUAL "${EXIT}")
    message(FATAL_ERROR "want exit ${EXIT}, got: ${context}")
  endif()
  string(FIND "${err}" "assertion failed" assertion)
  if(NOT assertion EQUAL -1)
    message(FATAL_ERROR "user error surfaced as an assertion: ${context}")
  endif()
  if(DEFINED STDERR)
    set(want "${STDERR}")
    string(FIND "${err}" "${want}" at)
  elseif(EXIT EQUAL 0)
    set(want "usage: gridlb ")
    string(FIND "${out}" "${want}" at)
  elseif(EXIT EQUAL 1)
    if(NOT out STREQUAL "" OR NOT err STREQUAL "error: ${message}\n")
      message(FATAL_ERROR "want only 'error: ${message}': ${context}")
    endif()
    return()
  else()
    set(want "error: ${message}\nusage: gridlb ")
    string(FIND "${err}" "${want}" at)
  endif()
  if(NOT at EQUAL 0)
    message(FATAL_ERROR "want output starting with '${want}': ${context}")
  endif()
endfunction()

if(DEFINED RETIRED)
  separate_arguments(retired UNIX_COMMAND "${RETIRED}")
  foreach(flag IN LISTS retired)
    check_case("${ARGS} ${flag} 1" "unknown flag ${flag}")
  endforeach()
else()
  check_case("${ARGS}" "${MESSAGE}")
endif()
