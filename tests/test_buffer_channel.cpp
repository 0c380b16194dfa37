// Unit tests for VcBuffer and DelayLine channels, including the semantic
// validation their snapshot Load applies to CRC-valid payloads.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/serialize.hpp"
#include "noc/buffer.hpp"
#include "noc/channel.hpp"

namespace gnoc {
namespace {

Flit MakeFlit(PacketId id) {
  Flit f;
  f.packet_id = id;
  return f;
}

TEST(VcBufferTest, FifoOrder) {
  VcBuffer buf(4);
  buf.Push(MakeFlit(1));
  buf.Push(MakeFlit(2));
  buf.Push(MakeFlit(3));
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.Pop().packet_id, 1u);
  EXPECT_EQ(buf.Pop().packet_id, 2u);
  EXPECT_EQ(buf.Front().packet_id, 3u);
  EXPECT_EQ(buf.Pop().packet_id, 3u);
  EXPECT_TRUE(buf.empty());
}

TEST(VcBufferTest, CapacityTracking) {
  VcBuffer buf(2);
  EXPECT_EQ(buf.free_slots(), 2u);
  EXPECT_FALSE(buf.full());
  buf.Push(MakeFlit(1));
  EXPECT_EQ(buf.free_slots(), 1u);
  buf.Push(MakeFlit(2));
  EXPECT_TRUE(buf.full());
  EXPECT_EQ(buf.free_slots(), 0u);
  buf.Pop();
  EXPECT_FALSE(buf.full());
}

TEST(VcBufferTest, ClearEmpties) {
  VcBuffer buf(3);
  buf.Push(MakeFlit(1));
  buf.Clear();
  EXPECT_TRUE(buf.empty());
}

TEST(DelayLineTest, RespectsLatency) {
  DelayLine<int> line(3);
  line.Push(42, 10);
  EXPECT_FALSE(line.Deliverable(10));
  EXPECT_FALSE(line.Deliverable(12));
  EXPECT_FALSE(line.Pop(12).has_value());
  EXPECT_TRUE(line.Deliverable(13));
  auto v = line.Pop(13);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(line.empty());
}

TEST(DelayLineTest, PreservesOrderUnderBackToBackPushes) {
  DelayLine<int> line(1);
  line.Push(1, 0);
  line.Push(2, 0);
  line.Push(3, 1);
  EXPECT_EQ(*line.Pop(1), 1);
  EXPECT_EQ(*line.Pop(1), 2);
  EXPECT_FALSE(line.Pop(1).has_value());
  EXPECT_EQ(*line.Pop(2), 3);
}

TEST(DelayLineTest, LateConsumerStillGetsItems) {
  DelayLine<int> line(1);
  line.Push(9, 0);
  // Consumer checks much later: item must still be there.
  EXPECT_EQ(*line.Pop(100), 9);
}

TEST(DelayLineTest, SizeCountsInFlight) {
  DelayLine<int> line(2);
  EXPECT_EQ(line.size(), 0u);
  line.Push(1, 0);
  line.Push(2, 1);
  EXPECT_EQ(line.size(), 2u);
  line.Pop(2);
  EXPECT_EQ(line.size(), 1u);
}

// --- snapshot validation ---------------------------------------------------

/// Offset of the first byte where the serialized `mutated` flit differs from
/// a default one — locates a field inside the wire format.
std::size_t FlitFieldOffset(const Flit& mutated) {
  Serializer a;
  Save(a, Flit{});
  Serializer b;
  Save(b, mutated);
  std::size_t i = 0;
  while (a.bytes()[i] == b.bytes()[i]) ++i;
  return i;
}

std::size_t FlitSize() {
  Serializer s;
  Save(s, Flit{});
  return s.bytes().size();
}

void Overwrite(std::string& payload, std::size_t offset, const Serializer& v) {
  payload.replace(offset, v.bytes().size(), v.bytes());
}

/// Frames a (mutated) payload as a snapshot file with a fresh CRC and reads
/// it back, so the mutation reaches Load past every framing check.
std::string Reframe(const std::string& payload) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (std::string("gnoc_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".snap"))
          .string();
  WriteSnapshotFile(path, 0xB0FF, payload);
  std::string out = ReadSnapshotFile(path, 0xB0FF);
  std::filesystem::remove(path);
  return out;
}

/// Expects `load` of the reframed `payload` to throw SerializeError whose
/// message contains `needle`.
template <typename LoadFn>
void ExpectLoadRejects(const std::string& payload, LoadFn&& load,
                       const std::string& needle) {
  const std::string reframed = Reframe(payload);
  Deserializer d(reframed);
  try {
    load(d);
    FAIL() << "expected SerializeError mentioning '" << needle << "'";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotValidationTest, VcBufferLoadRejectsImpossibleContents) {
  constexpr VcId kNumVcs = 2;
  VcBuffer source(4);
  for (int i = 0; i < 2; ++i) {
    Flit f = MakeFlit(7);
    f.vc = 1;
    f.ready = 10 + static_cast<Cycle>(i);
    source.Push(f);
  }
  Serializer s;
  source.Save(s);
  const std::string good = s.bytes();
  const auto load = [&](Deserializer& d) {
    VcBuffer buf(4);
    buf.Load(d, kNumVcs);
  };
  {
    const std::string reframed = Reframe(good);
    Deserializer d(reframed);
    VcBuffer buf(4);
    buf.Load(d, kNumVcs);
    EXPECT_EQ(buf.size(), 2u);
  }

  std::string over_capacity = good;
  Serializer count;
  count.U64(5);
  Overwrite(over_capacity, 0, count);
  ExpectLoadRejects(over_capacity, load, "above its capacity 4");

  Flit vc_probe;
  vc_probe.vc = 1;
  std::string bad_vc = good;
  Serializer vc;
  vc.I32(kNumVcs);
  Overwrite(bad_vc, 8 + FlitFieldOffset(vc_probe), vc);
  ExpectLoadRejects(bad_vc, load, "outside [0, 2)");

  Flit ready_probe;
  ready_probe.ready = 1;
  std::string early = good;
  Serializer ready;
  ready.U64(3);  // second flit ready before the first
  Overwrite(early, 8 + FlitSize() + FlitFieldOffset(ready_probe), ready);
  ExpectLoadRejects(early, load, "ready cycles decrease");
}

TEST(SnapshotValidationTest, ChannelLoadRejectsImpossibleContents) {
  constexpr VcId kNumVcs = 2;
  FlitChannel source(1);
  Flit f = MakeFlit(3);
  f.vc = 0;
  source.Push(f, 5);
  source.Push(f, 6);
  Serializer s;
  source.Save(s);
  const std::string good = s.bytes();
  const auto load_bounded = [&](std::size_t max_items) {
    return [max_items](Deserializer& d) {
      FlitChannel line(1);
      line.Load(d, max_items, kNumVcs);
    };
  };
  {
    const std::string reframed = Reframe(good);
    Deserializer d(reframed);
    FlitChannel line(1);
    line.Load(d, 8, kNumVcs);
    EXPECT_EQ(line.FrontDue(), 6u);
  }

  ExpectLoadRejects(good, load_bounded(1), "above the credit bound 1");

  Flit vc_probe;
  vc_probe.vc = 1;
  std::string bad_vc = good;
  Serializer vc;
  vc.I32(-3);
  Overwrite(bad_vc, 16 + FlitFieldOffset(vc_probe), vc);
  ExpectLoadRejects(bad_vc, load_bounded(8), "outside [0, 2)");

  std::string reordered = good;
  Serializer due;
  due.U64(2);  // second item due before the first
  Overwrite(reordered, 16 + FlitSize(), due);
  ExpectLoadRejects(reordered, load_bounded(8), "due cycles decrease");
}

}  // namespace
}  // namespace gnoc
