// Binary serialization for simulator snapshots (DESIGN.md §10).
//
// `Serializer`/`Deserializer` encode fixed-width primitives little-endian
// byte-by-byte (host-endianness independent), doubles as their IEEE-754 bit
// pattern (exact round-trip), and strings/blobs length-prefixed.
//
// Every stateful simulator component declares its snapshot layout once, as
// one template that lists its fields in wire order:
//
//   template <typename Ar> void Transfer(Ar& ar);
//
// A SaveArchive (over a Serializer) and a LoadArchive (over a Deserializer)
// drive that same list, so the two directions cannot drift apart. Steps
// that belong to one direction only are written next to the fields they
// guard: range checks (`ar.InRange`, `ar.Check`), counts and presence flags
// the loader must match (`ar.FixedSize`, `ar.Presence`), and rebuilding
// derived state (`if constexpr (Ar::kLoading)`). Each component keeps the
// entry points
//
//   void Save(Serializer& s) const;   // SaveFields(*this, s)
//   void Load(Deserializer& d);       // LoadFields(*this, d)
//
// and snapshot *files* wrap one serialized payload in a framed container:
//
//   magic "GNOCSNAP" | format version u32 | config fingerprint u64
//   | payload length u64 | payload bytes | CRC32 u32 (over all prior bytes)
//
// Loading rejects wrong magic, unknown versions, mismatched fingerprints
// and corrupt/truncated payloads with distinct, actionable errors. Writes
// go through a temp file + rename so readers never observe a partial file.
// tests/test_snapshot_format.cpp pins the payload bytes of every optional
// component.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace gnoc {

/// Bumped whenever the serialized layout of any component changes.
/// v3: Network payloads append the event queue (scheduling=event).
/// v4: QoS — NIC token buckets + throttle counters, router WRR credits,
///     per-class SLO targets in telemetry reports, QoS summary counters.
/// v5: Network payloads drop the active-set dirty lists and the event
///     queue; NICs drop their epoch-dirty flag.
inline constexpr std::uint32_t kSnapshotFormatVersion = 5;

/// Thrown on any malformed snapshot: truncation, bad magic, version skew,
/// fingerprint mismatch, CRC mismatch.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`.
std::uint32_t Crc32(std::string_view data);

/// FNV-1a 64-bit hash of `data` — used for config fingerprints.
std::uint64_t Fnv1a64(std::string_view data);

/// Appends primitives to an in-memory byte buffer, little-endian.
class Serializer {
 public:
  void U8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(std::uint16_t v) { Unsigned(v, 2); }
  void U32(std::uint32_t v) { Unsigned(v, 4); }
  void U64(std::uint64_t v) { Unsigned(v, 8); }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// Exact: stores the IEEE-754 bit pattern, so NaNs/-0.0/denormals all
  /// round-trip bit-identically.
  void Double(double v);
  /// Length-prefixed (u64) byte string.
  void Str(std::string_view v);

  const std::string& bytes() const { return buf_; }
  std::string TakeBytes() { return std::move(buf_); }

 private:
  template <typename Io>
  friend class Archive;

  void Unsigned(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string buf_;
};

/// Reads primitives back in the same order; every read is bounds-checked
/// and throws SerializeError on truncation. `Finish()` asserts the whole
/// payload was consumed (catches layout drift between Save and Load).
class Deserializer {
 public:
  explicit Deserializer(std::string_view data) : data_(data) {}

  std::uint8_t U8() { return static_cast<std::uint8_t>(Byte()); }
  std::uint16_t U16() { return static_cast<std::uint16_t>(Unsigned(2)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Unsigned(4)); }
  std::uint64_t U64() { return Unsigned(8); }
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  bool Bool() { return U8() != 0; }
  double Double();
  std::string Str();

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Throws if any payload bytes are left unread.
  void Finish() const;
  /// Throws SerializeError (truncation) unless `n` more bytes remain.
  void Need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw SerializeError("snapshot truncated: need " + std::to_string(n) +
                           " byte(s) at offset " + std::to_string(pos_) +
                           " of " + std::to_string(data_.size()));
    }
  }

 private:
  template <typename Io>
  friend class Archive;

  char Byte() {
    Need(1);
    return data_[pos_++];
  }
  std::uint64_t Unsigned(int n) {
    Need(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Grants access to std::priority_queue's protected container so snapshot
/// code can save and restore the heap array *verbatim*. Rebuilding a heap
/// by re-pushing (or make_heap) may permute elements that compare equal,
/// changing subsequent pop order — which would break the bit-identical
/// resume guarantee for queues ordered by non-unique keys.
template <typename Pq>
struct PriorityQueueAccess : Pq {
  static typename Pq::container_type& Container(Pq& pq) {
    return pq.*&PriorityQueueAccess::c;
  }
  static const typename Pq::container_type& Container(const Pq& pq) {
    return pq.*&PriorityQueueAccess::c;
  }
};

/// Drives a component's `Transfer(ar)` field list in one direction: `Io`
/// is Serializer for a save archive and Deserializer for a load archive.
/// Everything resolves at compile time; a field costs exactly the
/// Serializer/Deserializer call it stands for.
///
/// How `ar(field)` encodes a field follows from its type:
///  - bool, double, std::string: the primitive of that name;
///  - other integers and enums: unsigned little-endian of the type's width;
///  - a class with Save/Load members: those (this also reaches the virtual
///    Save/Load of Fabric and Arbiter); otherwise its `Transfer(ar)`;
///  - std::unique_ptr: the pointee; std::pair: first, then second;
///  - any other range (std::array, std::vector, std::deque): each element,
///    with no length prefix. A container whose length is not fixed by
///    construction goes through `ar.Sized(c)` instead.
template <typename Io>
class Archive {
 public:
  static constexpr bool kLoading = std::is_same_v<Io, Deserializer>;

  explicit Archive(Io& io) : io_(io) {}

  /// Transfers each field in order.
  template <typename... Ts>
  void operator()(Ts&... fields) {
    (Field(fields), ...);
  }

  /// Transfers an index or enum field whose valid values are [lo, hi); a
  /// load throws SerializeError naming `name` for any other value.
  template <typename T>
  void InRange(T& field, std::int64_t lo, std::int64_t hi, const char* name) {
    Field(field);
    Check(field, lo, hi, name);
  }

  /// Load-only: throws "snapshot <name> <value> outside [lo, hi)" unless
  /// lo <= value < hi. A no-op on a save archive.
  template <typename T>
  void Check(const T& value, std::int64_t lo, std::int64_t hi,
             const char* name) const {
    if constexpr (kLoading) {
      const auto v = +static_cast<IntOf<T>>(value);  // 8-bit prints as a number
      if (std::cmp_less(v, lo) || !std::cmp_less(v, hi)) {
        throw SerializeError("snapshot " + std::string(name) + " " +
                             std::to_string(v) + " outside [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             ")");
      }
    }
  }

  /// A resizable container: u64 count, then each element. A load first
  /// resizes `c` to the stored count, new elements copied from `proto...`.
  template <typename C, typename... Proto>
  void Sized(C& c, const Proto&... proto) {
    Count(c, proto...);
    Field(c);
  }

  /// Only the u64 count of a resizable container, for a caller that then
  /// transfers the elements itself; a load resizes `c` to the count.
  template <typename C, typename... Proto>
  void Count(C& c, const Proto&... proto) {
    if constexpr (kLoading) {
      Resize(c, io_.U64(), proto...);
    } else {
      io_.U64(c.size());
    }
  }

  /// Count, but a load throws SerializeError(too_many(count)) when the
  /// count exceeds `max`.
  template <typename C, typename Fn>
  void BoundedCount(C& c, std::size_t max, Fn&& too_many) {
    if constexpr (kLoading) {
      const std::uint64_t n = io_.U64();
      if (n > max) throw SerializeError(too_many(n));
      Resize(c, n);
    } else {
      io_.U64(c.size());
    }
  }

  /// u64 length prefix of a container sized by construction: saves
  /// `c.size()`; a load throws SerializeError unless the stored count
  /// equals `c.size()`. `mismatch` is the message, or a callable taking
  /// the stored count that returns it.
  template <typename C, typename Msg>
  void FixedSize(const C& c, const Msg& mismatch) {
    if constexpr (kLoading) {
      const std::uint64_t n = io_.U64();
      if (n != c.size()) {
        if constexpr (std::is_invocable_v<const Msg&, std::uint64_t>) {
          throw SerializeError(mismatch(n));
        } else {
          throw SerializeError(mismatch);
        }
      }
    } else {
      io_.U64(c.size());
    }
  }

  /// A flag recording whether an optional component exists: saves
  /// `present`; a load throws SerializeError(mismatch) when the stored flag
  /// differs (the loader was configured differently). Returns `present`.
  bool Presence(bool present, const char* mismatch) {
    if constexpr (kLoading) {
      if (io_.Bool() != present) throw SerializeError(mismatch);
    } else {
      io_.Bool(present);
    }
    return present;
  }

  /// A u64-counted map whose entries are written in ascending key order,
  /// so the bytes never depend on an unordered_map's iteration order.
  /// `entry(key, value)` transfers one entry; a load clears `m` first.
  template <typename M, typename Fn>
  void Map(M& m, Fn&& entry) {
    using K = typename M::key_type;
    using V = typename M::mapped_type;
    if constexpr (kLoading) {
      const std::uint64_t n = io_.U64();
      io_.Need(n);
      m.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        K key{};
        V value{};
        entry(key, value);
        m[key] = std::move(value);
      }
    } else {
      std::vector<const typename M::value_type*> sorted;
      sorted.reserve(m.size());
      for (const auto& kv : m) sorted.push_back(&kv);
      std::sort(sorted.begin(), sorted.end(),
                [](const auto* a, const auto* b) { return a->first < b->first; });
      io_.U64(sorted.size());
      for (const auto* kv : sorted) {
        K key = kv->first;
        entry(key, const_cast<V&>(kv->second));
      }
    }
  }

  /// A std::priority_queue's heap array, verbatim (see PriorityQueueAccess
  /// below): u64 count, then each element in array order.
  template <typename Pq>
  void Heap(Pq& pq) {
    Sized(PriorityQueueAccess<Pq>::Container(pq));
  }

 private:
  /// The integer type a scalar field is written as (an enum's underlying
  /// type), in the field's own width.
  template <typename T>
  using IntOf = typename std::conditional_t<std::is_enum_v<T>,
                                            std::underlying_type<T>,
                                            std::type_identity<T>>::type;

  /// Each element takes at least one byte, so a count above the bytes left
  /// is truncation; checked before resizing so a corrupt count cannot ask
  /// for an absurd allocation.
  template <typename C, typename... Proto>
  void Resize(C& c, std::uint64_t n, const Proto&... proto) {
    io_.Need(n);
    c.clear();
    c.resize(n, proto...);
  }

  template <typename T>
  void Field(T& v) {
    using U = std::remove_const_t<T>;
    if constexpr (std::is_same_v<U, bool>) {
      if constexpr (kLoading) v = io_.Bool(); else io_.Bool(v);
    } else if constexpr (std::is_same_v<U, double>) {
      if constexpr (kLoading) v = io_.Double(); else io_.Double(v);
    } else if constexpr (std::is_same_v<U, std::string>) {
      if constexpr (kLoading) v = io_.Str(); else io_.Str(v);
    } else if constexpr (std::is_integral_v<U> || std::is_enum_v<U>) {
      if constexpr (kLoading) {
        v = static_cast<U>(static_cast<IntOf<U>>(io_.Unsigned(sizeof(U))));
      } else {
        io_.Unsigned(static_cast<std::uint64_t>(static_cast<IntOf<U>>(v)),
                     sizeof(U));
      }
    } else if constexpr (requires(U& u, Serializer& s, Deserializer& d) {
                           u.Save(s);
                           u.Load(d);
                         }) {
      if constexpr (kLoading) v.Load(io_); else v.Save(io_);
    } else if constexpr (requires(U& u, Archive& ar) { u.Transfer(ar); }) {
      const_cast<U&>(v).Transfer(*this);
    } else if constexpr (requires(U& u) { u.reset(); }) {  // unique_ptr
      Field(*v);
    } else if constexpr (requires(U& u) { u.second; }) {  // pair
      Field(v.first);
      Field(v.second);
    } else if constexpr (std::is_same_v<U, std::vector<bool>>) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        if constexpr (kLoading) v[i] = io_.Bool(); else io_.Bool(v[i]);
      }
    } else {
      for (auto& element : v) Field(element);
    }
  }

  Io& io_;
};

using SaveArchive = Archive<Serializer>;
using LoadArchive = Archive<Deserializer>;

/// The body of a component's `Save(Serializer&) const`: runs its
/// `Transfer(ar, args...)` through a save archive, which only reads the
/// fields.
template <typename T, typename... Args>
void SaveFields(const T& component, Serializer& s, const Args&... args) {
  SaveArchive ar(s);
  const_cast<T&>(component).Transfer(ar, args...);
}

/// The body of a component's `Load(Deserializer&)`.
template <typename T, typename... Args>
void LoadFields(T& component, Deserializer& d, const Args&... args) {
  LoadArchive ar(d);
  component.Transfer(ar, args...);
}

/// Writes `path` atomically (temp file in the same directory + rename).
/// Throws std::runtime_error on any I/O failure.
void AtomicWriteFile(const std::string& path, std::string_view contents);

/// Frames `payload` (magic + version + fingerprint + length + payload +
/// CRC32) and writes it atomically to `path`.
void WriteSnapshotFile(const std::string& path, std::uint64_t fingerprint,
                       std::string_view payload);

/// Reads and validates a snapshot file, returning the payload. Rejects
/// wrong magic, version skew, fingerprint mismatch (a snapshot taken under
/// a different configuration) and CRC/truncation corruption — each with a
/// distinct SerializeError message naming `path`.
std::string ReadSnapshotFile(const std::string& path,
                             std::uint64_t expected_fingerprint);

}  // namespace gnoc
