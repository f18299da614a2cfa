# The repository's src/obs/CMakeLists.txt runs
# ${CMAKE_SOURCE_DIR}/cmake/git_describe.cmake at build time.  With perfbench/
# as the top-level project that path lands here; run the repository's script.
include("${CMAKE_CURRENT_LIST_DIR}/../../cmake/git_describe.cmake")
