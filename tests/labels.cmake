# Included by ctest via TEST_INCLUDE_FILES *after* the gtest-generated
# registration scripts, so every discovered test already exists here.
# gtest_discover_tests cannot forward a list-valued LABELS property
# ("slow;serving" flattens into two arguments on the way through its
# argument serialization), so the extra labels are applied in this post-pass
# instead: parse the generated includes for the discovered test names and
# re-set their labels with proper quoting.
#
# ctest's testfile interpreter has no set_property(TEST ... APPEND), only
# set_tests_properties, so every row states a test's full label list. ctest
# adds the labels to those the test already has (from gtest discovery or an
# earlier row), so a row can add labels but never remove one.
#
# One row per (suite, test-name regex, labels); labels are comma-separated.
set(_agsc_kernel_tests
    "^(GemmKernelTest|MlpInferTest|KernelInvarianceTest|Crc32Test|AdamTest)\\.")
set(_agsc_overload_tests "Overload|Fairness|Admission|Quarantine|Flood|Shed|Brownout|Health|PublishRejectAccounting|CancelClient")
set(_agsc_label_rows
  # Soak campaign: `ctest -L serving`.
  serving_soak_test    "."                       "slow,serving"
  # Socket edge cases, the frame reader fuzz and the worker-protocol
  # payload decoder fuzz: `ctest -L net`.
  net_test             "."                       "fast,net"
  frame_fuzz_test      "."                       "fast,net"
  worker_protocol_fuzz_test "."                  "fast,net"
  # GEMM tier sweep, Mlp::Infer against the graph forward, tanh and Adam
  # at every tier, byte-identical checkpoints across kernels, CRC-32:
  # `ctest -L kernel`.
  nn_kernel_test       "${_agsc_kernel_tests}"   "fast,kernel"
  tanh_kernel_test     "^TanhKernelTest\\.Stratified" "fast,kernel"
  util_test            "${_agsc_kernel_tests}"   "fast,kernel"
  # Sampler determinism across transports and forward placements, the
  # graph-free action sampler and the golden digests: `ctest -L rollout`.
  vec_sampler_test     "."                       "fast,rollout"
  proc_sampler_test    "."                       "slow,rollout"
  golden_digest_test   "."                       "fast,rollout"
  supervisor_test      "^SamplerSupervisionTest\\." "slow,rollout"
  distributions_test   "^DiagGaussianRowTest\\."    "fast,rollout"
  ppo_rollout_test     "^(SuccessorValuesTest|RolloutTest)\\." "fast,rollout"
  # Admission, fairness, brownout and quarantine: `ctest -L overload`.
  dispatch_server_test "${_agsc_overload_tests}" "fast,overload"
  serving_soak_test    "${_agsc_overload_tests}" "slow,serving,overload"
)

list(LENGTH _agsc_label_rows _agsc_row_words)
math(EXPR _agsc_last_row "${_agsc_row_words} - 3")
foreach(_agsc_row RANGE 0 ${_agsc_last_row} 3)
  math(EXPR _agsc_pattern_at "${_agsc_row} + 1")
  math(EXPR _agsc_labels_at "${_agsc_row} + 2")
  list(GET _agsc_label_rows ${_agsc_row} _agsc_suite)
  list(GET _agsc_label_rows ${_agsc_pattern_at} _agsc_pattern)
  list(GET _agsc_label_rows ${_agsc_labels_at} _agsc_labels)
  string(REPLACE "," ";" _agsc_labels "${_agsc_labels}")
  file(GLOB _agsc_includes
       "${CMAKE_CURRENT_LIST_DIR}/${_agsc_suite}*_tests.cmake")
  foreach(_agsc_file IN LISTS _agsc_includes)
    file(STRINGS "${_agsc_file}" _agsc_adds REGEX "add_test")
    foreach(_agsc_line IN LISTS _agsc_adds)
      string(REGEX MATCH "add_test\\( *\\[=\\[([^]]+)\\]=\\]" _agsc_m "${_agsc_line}")
      # Copy the capture out before the next MATCHES clobbers CMAKE_MATCH_1.
      set(_agsc_name "${CMAKE_MATCH_1}")
      if(_agsc_name AND _agsc_name MATCHES "${_agsc_pattern}")
        set_tests_properties("${_agsc_name}" PROPERTIES LABELS "${_agsc_labels}")
      endif()
    endforeach()
  endforeach()
endforeach()
