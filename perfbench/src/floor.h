// The control row: a bench-owned loopback echo over the workload's
// connection count. It measures the kernel's loopback round trip, which
// no change to the repository should move.

#ifndef PERFBENCH_FLOOR_H_
#define PERFBENCH_FLOOR_H_

namespace perfbench {

// Median round trip, in microseconds, of a GET-sized frame echoed by a
// thread of this process over `conns` loopback connections, one frame in
// flight at a time, for about `seconds`.
double FloorRttP50Us(int conns, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_FLOOR_H_
