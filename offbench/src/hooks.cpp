// offbench — link-time hooks (GNU ld --wrap; see CMakeLists.txt).
//
// serve::run_serve and fft::run_fft_perf build their own Cluster and their
// own proxies and destroy both before returning, so their counters are
// unreachable through the public API alone. The linker redirects every
// reference to the symbols below that lies outside their defining object
// file to __wrap_<symbol>, and __real_<symbol> names the original:
//
//   * smpi::Cluster::~Cluster (complete-object destructor): snapshot the
//     engine, network and per-rank counters into the active capture, then
//     destroy as usual. The run is over by then, so the snapshot is final.
//   * core::make_proxy (both overloads): an offload proxy is built as a
//     TracedProxy with the same options the original would have used, which
//     adds the benchmark's core spans and hands its counters to the capture
//     when it is destroyed. Other approaches go to the original untouched.
//
// The declarations repeat the C++ signatures under the mangled names, so the
// calling convention is exactly the original's.
#include "bench.hpp"

extern "C" {
void __real__ZN4smpi7ClusterD1Ev(smpi::Cluster* self);
std::unique_ptr<core::Proxy>
__real__ZN4core10make_proxyENS_8ApproachERN4smpi7RankCtxE(core::Approach a,
                                                          smpi::RankCtx& rc);
std::unique_ptr<core::Proxy>
__real__ZN4core10make_proxyENS_8ApproachERN4smpi7RankCtxERKNS_12ProxyOptionsE(
    core::Approach a, smpi::RankCtx& rc, const core::ProxyOptions& opts);

void __wrap__ZN4smpi7ClusterD1Ev(smpi::Cluster* self) {
  if (offbench::Layers* l = offbench::capture()) l->add_cluster(*self);
  __real__ZN4smpi7ClusterD1Ev(self);
}

std::unique_ptr<core::Proxy>
__wrap__ZN4core10make_proxyENS_8ApproachERN4smpi7RankCtxE(core::Approach a,
                                                          smpi::RankCtx& rc) {
  if (a != core::Approach::kOffload) {
    return __real__ZN4core10make_proxyENS_8ApproachERN4smpi7RankCtxE(a, rc);
  }
  // What OffloadProxy(rc) would read; main() refuses to start while any
  // MPIOFF_* variable is set, so this is the profile's defaults.
  return std::make_unique<offbench::TracedProxy>(
      rc, core::ProxyOptions::from_env(rc.profile()));
}

std::unique_ptr<core::Proxy>
__wrap__ZN4core10make_proxyENS_8ApproachERN4smpi7RankCtxERKNS_12ProxyOptionsE(
    core::Approach a, smpi::RankCtx& rc, const core::ProxyOptions& opts) {
  if (a != core::Approach::kOffload) {
    return __real__ZN4core10make_proxyENS_8ApproachERN4smpi7RankCtxERKNS_12ProxyOptionsE(
        a, rc, opts);
  }
  return std::make_unique<offbench::TracedProxy>(rc, opts);
}
}  // extern "C"
