# Included by ctest via TEST_INCLUDE_FILES after the gtest-generated
# registration scripts (see net_labels.cmake for why labels are applied in a
# post-pass). Adds the "kernel" label to the bit-exactness checks of the
# compute kernels — the GEMM tier sweep and thread-count tests,
# KernelInvarianceTest's byte-identical checkpoints and the CRC-32 tests —
# so `ctest -L kernel` runs them alone. Their base label is "fast".
foreach(_agsc_suite nn_kernel_test util_test)
  file(GLOB _agsc_kernel_includes
       "${CMAKE_CURRENT_LIST_DIR}/${_agsc_suite}*_tests.cmake")
  foreach(_agsc_file IN LISTS _agsc_kernel_includes)
    file(STRINGS "${_agsc_file}" _agsc_adds REGEX "add_test")
    foreach(_agsc_line IN LISTS _agsc_adds)
      string(REGEX MATCH "add_test\\( *\\[=\\[([^]]+)\\]=\\]" _agsc_m "${_agsc_line}")
      set(_agsc_name "${CMAKE_MATCH_1}")
      if(_agsc_name MATCHES "^(GemmKernelTest|KernelInvarianceTest|Crc32Test)\\.")
        set_tests_properties("${_agsc_name}" PROPERTIES LABELS "fast;kernel")
      endif()
    endforeach()
  endforeach()
endforeach()
