// Compiled into libtierbase by perfbench's build (see CMakeLists.txt), so
// it sees exactly the library's compile flags. perfbench compares the
// answer with its own NDEBUG: common::Mutex carries a holder field only
// without NDEBUG, and a bench built with the other setting corrupts memory.

extern "C" int perfbench_library_ndebug() {
#ifdef NDEBUG
  return 1;
#else
  return 0;
#endif
}
