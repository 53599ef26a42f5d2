// Public types and constants of SimMPI, the simulator-hosted MPI subset.
//
// Naming follows the MPI standard closely (ANY_SOURCE, Status fields, thread
// levels) so that code written against SimMPI reads like MPI code; handles
// are small value types rather than opaque pointers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace smpi {

// ---- wildcards & special ranks ----
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;
inline constexpr int kProcNull = -2;

// ---- partitioned point-to-point tag encoding ----
// A partitioned operation (MPI_Psend_init-style) ships every partition as an
// independent wire message; the partition index is folded into the tag so
// normal matching pairs partition p of the send with partition p of the
// receive. Bit 30 marks a partition frame — kAnyTag receives never match one
// (a wildcard must not steal a single slice out of a partitioned transfer).
// The base tag occupies bits [12, 29), so partitioned ops accept base tags
// in [0, 2^17) and partition counts in [1, 4096].
inline constexpr int kPartTagBit = 1 << 30;
inline constexpr int kPartTagShift = 12;
inline constexpr int kMaxPartitions = 1 << kPartTagShift;  // 4096
inline constexpr int kMaxPartBaseTag = 1 << 17;

/// Wire tag of partition `p` of a partitioned op with base tag `tag`.
constexpr int part_wire_tag(int tag, int p) {
  return kPartTagBit | (tag << kPartTagShift) | p;
}

/// Slice `p` of a `bytes`-byte buffer cut into `partitions` contiguous
/// partitions: its address and length. A phantom (nullptr) buffer slices
/// into phantom partitions, never nullptr + offset. `V` is void or const
/// void.
template <typename V>
std::pair<V*, std::size_t> part_slice(V* buf, std::uint64_t bytes,
                                      std::uint32_t partitions,
                                      std::uint32_t p) {
  using Byte = std::conditional_t<std::is_const_v<V>, const char, char>;
  const std::uint64_t lo = bytes * p / partitions;
  const std::uint64_t hi = bytes * (p + 1) / partitions;
  V* at = buf == nullptr ? nullptr : static_cast<Byte*>(buf) + lo;
  return {at, static_cast<std::size_t>(hi - lo)};
}

/// MPI_Init_thread levels. kSingle and kSerialized behave like kFunneled in
/// this implementation (no library locking); kMultiple enables the global
/// lock path that mainstream MPIs use.
enum class ThreadLevel : std::uint8_t {
  kSingle,
  kFunneled,
  kSerialized,
  kMultiple,
};

/// Basic datatypes (contiguous only; derived datatypes are out of scope —
/// the paper's benchmarks and apps use contiguous buffers).
enum class Datatype : std::uint8_t {
  kByte,
  kChar,
  kInt,
  kLong,
  kFloat,
  kDouble,
  kComplexFloat,
  kComplexDouble,
};

/// Reduction operations. kUser0..kUser3 are slots handed out by
/// register_user_op (MPI_Op_create); unregistered slots are invalid.
enum class Op : std::uint8_t {
  kSum,
  kProd,
  kMax,
  kMin,
  kUser0,
  kUser1,
  kUser2,
  kUser3,
};

/// User reduction function: inout[i] = f(inout[i], in[i]) elementwise, like
/// MPI_User_function (the second operand is the accumulator).
using UserOpFn = void (*)(const void* in, void* inout, std::size_t count,
                          Datatype dt);

/// MPI_Op_create: register `fn` into a kUser slot. Idempotent per function
/// pointer (re-registering returns the same slot); at most 4 distinct user
/// ops per process. Call before fibers spawn — the registry is unsynchronized.
Op register_user_op(UserOpFn fn, bool commutative);

/// Whether `op` commutes (built-ins do; user ops report their declaration).
/// Collective algorithm selection gates order-sensitive schedules on this.
bool op_commutative(Op op);

/// Communicator handle; value type, valid within one rank.
struct Comm {
  int idx = -1;
  [[nodiscard]] bool valid() const { return idx >= 0; }
  friend bool operator==(Comm a, Comm b) { return a.idx == b.idx; }
};

inline constexpr Comm kCommWorld{0};
inline constexpr Comm kCommSelf{1};
inline constexpr Comm kCommNull{-1};

/// Request handle; value type, valid within one rank. Index 0 is the null
/// request (complete, inactive).
struct Request {
  int idx = 0;
  [[nodiscard]] bool is_null() const { return idx == 0; }
  friend bool operator==(Request a, Request b) { return a.idx == b.idx; }
};

inline constexpr Request kRequestNull{0};

/// RMA window handle; value type, valid within one rank.
struct Win {
  int idx = -1;
  [[nodiscard]] bool valid() const { return idx >= 0; }
};

/// Completion status of a receive (or probe).
struct Status {
  int source = kAnySource;  ///< rank within the receive's communicator
  int tag = kAnyTag;
  std::uint64_t bytes = 0;  ///< received byte count

  /// Element count for a given datatype, MPI_Get_count style.
  [[nodiscard]] int count(Datatype dt) const;
};

/// Size in bytes of one element of `dt`.
std::size_t datatype_size(Datatype dt);

}  // namespace smpi
