# One benchmark binary per reproduced table/figure, plus ablations.
# Included from the top-level CMakeLists so that build/bench/ contains ONLY
# the benchmark executables: `for b in build/bench/*; do $b; done`.

function(oskit_bench name)
  add_executable(${name} bench/${name}.cc)
  target_link_libraries(${name} PRIVATE oskit_testbed oskit_vm oskit_fs
    oskit_diskpart benchmark::benchmark)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY
    ${CMAKE_BINARY_DIR}/bench)
endfunction()

oskit_bench(table1_bandwidth)
oskit_bench(table2_latency)
oskit_bench(table3_sizes)
target_compile_definitions(table3_sizes PRIVATE
  OSKIT_SOURCE_DIR="${CMAKE_SOURCE_DIR}")
oskit_bench(fig_footprint)
target_compile_definitions(fig_footprint PRIVATE
  OSKIT_BUILD_DIR="${CMAKE_BINARY_DIR}")
oskit_bench(fig_javapc)
oskit_bench(c10k)
oskit_bench(ablation_alloc)
oskit_bench(ablation_bufio)
oskit_bench(fault_campaign)
target_link_libraries(fault_campaign PRIVATE oskit_fault oskit_amm
  oskit_memdebug)
oskit_bench(crash_campaign)
target_link_libraries(crash_campaign PRIVATE oskit_fault oskit_aio)
oskit_bench(aio_campaign)
target_link_libraries(aio_campaign PRIVATE oskit_fault oskit_aio oskit_http
  oskit_secure)
oskit_bench(tenant_campaign)
target_link_libraries(tenant_campaign PRIVATE oskit_secure)
oskit_bench(http_campaign)
target_link_libraries(http_campaign PRIVATE oskit_http oskit_secure)
oskit_bench(monitor_campaign)
target_link_libraries(monitor_campaign PRIVATE oskit_secure oskit_scribble)

# A malformed command line is a usage error that exits 2, not a run over
# garbage that prints a FAIL and exits 0.
add_test(NAME table2_latency_usage
  COMMAND sh -c "\"$0\" --json x; test $? -eq 2" $<TARGET_FILE:table2_latency>)
add_test(NAME fig_javapc_usage
  COMMAND sh -c "\"$0\" --json; test $? -eq 2" $<TARGET_FILE:fig_javapc>)

# The regression gate's own tests (stdlib unittest).
add_test(NAME check_regression_test
  COMMAND python3 ${CMAKE_SOURCE_DIR}/bench/check_regression_test.py)
