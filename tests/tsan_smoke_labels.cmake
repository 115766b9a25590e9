# Included by ctest after the discovered tests (see tests/CMakeLists.txt):
# labels every test of the property and parallel binaries `tsan` and
# `smoke`, from the test lists gtest_discover_tests defines.
foreach(test IN LISTS vdbench_property_tests_TESTS vdbench_parallel_tests_TESTS)
  set_tests_properties("${test}" PROPERTIES LABELS "tsan;smoke")
endforeach()
