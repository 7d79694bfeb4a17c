# Runs one gridlb command line and checks how it reports a user error or a
# help request.  Registered as ctest cases by tests/CMakeLists.txt.
#
#   cmake -DCLI=<gridlb> -DARGS="<arguments>" -DEXIT=0 -P cli_case.cmake
#       the usage on stdout, exit 0 (help)
#   cmake -DCLI=<gridlb> -DARGS="<arguments>" -DEXIT=2
#         "-DMESSAGE=<text>" -P cli_case.cmake
#       "error: <text>" and then the usage on stderr, exit 2
#
# In every case stderr must not carry assertion text: a user error is not a
# gridlb bug.
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${argv}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(context "gridlb ${ARGS}\n-- exit: ${code}\n-- stdout:\n${out}\n-- stderr:\n${err}")

if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR "want exit ${EXIT}, got: ${context}")
endif()
string(FIND "${err}" "assertion failed" assertion)
if(NOT assertion EQUAL -1)
  message(FATAL_ERROR "user error surfaced as an assertion: ${context}")
endif()
if(EXIT EQUAL 0)
  set(want "usage: gridlb ")
  string(FIND "${out}" "${want}" at)
else()
  set(want "error: ${MESSAGE}\nusage: gridlb ")
  string(FIND "${err}" "${want}" at)
endif()
if(NOT at EQUAL 0)
  message(FATAL_ERROR "want output starting with '${want}': ${context}")
endif()
