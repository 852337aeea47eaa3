// Unit tests for util: serialization, records, crc32, status, rng.
#include <gtest/gtest.h>

#include <deque>

#include "util/byte_queue.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace zapc {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.err(), Err::OK);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesMessage) {
  Status s(Err::WOULD_BLOCK, "queue empty");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), "WOULD_BLOCK: queue empty");
}

TEST(Result, ValueRoundTrip) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, ErrorPropagates) {
  Result<int> r(Err::NO_ENT, "missing");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.err(), Err::NO_ENT);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(EncoderDecoder, PrimitivesRoundTrip) {
  Encoder e;
  e.put_u8(0xAB);
  e.put_u16(0xBEEF);
  e.put_u32(0xDEADBEEF);
  e.put_u64(0x0123456789ABCDEFull);
  e.put_i32(-123456);
  e.put_i64(-9876543210LL);
  e.put_bool(true);
  e.put_f64(3.14159265358979);
  e.put_string("hello");
  e.put_bytes(Bytes{1, 2, 3});

  Decoder d(e.bytes());
  EXPECT_EQ(d.u8_().value(), 0xAB);
  EXPECT_EQ(d.u16_().value(), 0xBEEF);
  EXPECT_EQ(d.u32_().value(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64_().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(d.i32_().value(), -123456);
  EXPECT_EQ(d.i64_().value(), -9876543210LL);
  EXPECT_TRUE(d.bool_().value());
  EXPECT_DOUBLE_EQ(d.f64_().value(), 3.14159265358979);
  EXPECT_EQ(d.string_().value(), "hello");
  EXPECT_EQ(d.bytes_().value(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(d.at_end());
}

TEST(EncoderDecoder, ShortBufferFailsCleanly) {
  Encoder e;
  e.put_u16(7);
  Decoder d(e.bytes());
  EXPECT_TRUE(d.u32_().err() == Err::PROTO);
}

TEST(EncoderDecoder, TruncatedStringFails) {
  Encoder e;
  e.put_u32(100);  // claims 100 bytes, provides none
  Decoder d(e.bytes());
  EXPECT_EQ(d.string_().err(), Err::PROTO);
}

TEST(Records, WriteReadRoundTrip) {
  RecordWriter w;
  Encoder p1;
  p1.put_string("pod-a");
  w.write(RecordTag::IMAGE_HEADER, 1, std::move(p1));
  Encoder p2;
  p2.put_u32(99);
  w.write(RecordTag::PROCESS, 2, std::move(p2));

  RecordReader r(w.bytes());
  auto rec1 = r.next();
  ASSERT_TRUE(rec1.is_ok());
  EXPECT_EQ(rec1.value().tag, RecordTag::IMAGE_HEADER);
  EXPECT_EQ(rec1.value().version, 1);
  auto rec2 = r.next();
  ASSERT_TRUE(rec2.is_ok());
  EXPECT_EQ(rec2.value().tag, RecordTag::PROCESS);
  // The payload is a view into the image, not a copy.
  const ByteView payload = rec2.value().payload;
  ASSERT_EQ(payload.size(), 4u);
  EXPECT_GE(payload.data(), w.bytes().data());
  EXPECT_LE(payload.data() + payload.size(),
            w.bytes().data() + w.bytes().size());
  Decoder d(payload);
  EXPECT_EQ(d.u32_().value(), 99u);
  EXPECT_EQ(r.next().err(), Err::NO_ENT);
}

TEST(Records, CorruptionDetected) {
  RecordWriter w;
  Encoder p;
  p.put_string("payload data here");
  w.write(RecordTag::MEM_REGION, 1, std::move(p));
  Bytes image = w.take();
  image[image.size() / 2] ^= 0xFF;  // flip a payload bit

  RecordReader r(image);
  EXPECT_EQ(r.next().err(), Err::PROTO);
}

TEST(Records, TruncatedImageDetected) {
  RecordWriter w;
  Encoder p;
  p.put_bytes(Bytes(1000, 7));
  w.write(RecordTag::MEM_REGION, 1, std::move(p));
  Bytes image = w.take();
  image.resize(image.size() - 10);

  RecordReader r(image);
  EXPECT_EQ(r.next().err(), Err::PROTO);
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (standard check value).
  Bytes b{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(b), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(Bytes{}), 0u); }

// Random bytes with 16 bytes of slack so every start offset 0-15 can
// read `len` bytes.
Bytes random_bytes(std::size_t n, u64 seed) {
  Rng rng(seed);
  Bytes b(n);
  for (u8& v : b) v = static_cast<u8>(rng.next_u64());
  return b;
}

u32 crc_bytewise(const u8* p, std::size_t n) {
  return crc32_final(crc32_update_bytewise(crc32_init(), p, n));
}

TEST(Crc32, DispatchedUpdateMatchesBytewiseOverLengthsAndOffsets) {
  // Lengths 0-5000 cross every boundary of the dispatch: below the 64
  // byte fold minimum, the 16-byte aligned head, whole 64-byte folds,
  // leftover 16-byte folds and the table-walked tail.
  const Bytes buf = random_bytes(5000 + 16, 1);
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    std::size_t len = rng.below(5001);
    std::size_t off = rng.below(16);
    const u8* p = buf.data() + off;
    ASSERT_EQ(crc32(p, len), crc_bytewise(p, len))
        << "len=" << len << " off=" << off;
  }
  // Every length around the fold thresholds, at every alignment.
  for (std::size_t len = 0; len <= 200; ++len) {
    for (std::size_t off = 0; off < 16; ++off) {
      const u8* p = buf.data() + off;
      ASSERT_EQ(crc32(p, len), crc_bytewise(p, len))
          << "len=" << len << " off=" << off;
    }
  }
}

TEST(Crc32, ChainedUpdatesSplitAtRandomPointsMatchOneShot) {
  const Bytes buf = random_bytes(5000, 3);
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    std::size_t len = rng.below(buf.size() + 1);
    u32 state = crc32_init();
    std::size_t pos = 0;
    while (pos < len) {
      std::size_t piece = rng.below(len - pos + 1);
      state = crc32_update(state, buf.data() + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(crc32_final(state), crc_bytewise(buf.data(), len))
        << "len=" << len;
  }
}

TEST(Crc32, Slice8FallbackMatchesBytewise) {
  // The table walk is the whole algorithm on hosts without PCLMULQDQ;
  // tested directly so hosts that fold still cover it.
  const Bytes buf = random_bytes(5000 + 16, 5);
  Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    std::size_t len = rng.below(5001);
    std::size_t off = rng.below(16);
    const u8* p = buf.data() + off;
    ASSERT_EQ(crc32_final(crc32_update_slice8(crc32_init(), p, len)),
              crc_bytewise(p, len))
        << "len=" << len << " off=" << off;
  }
  Bytes check{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32_final(crc32_update_slice8(crc32_init(), check.data(),
                                            check.size())),
            0xCBF43926u);
}

TEST(ByteQueue, AppendConsumeKeepFifoOrder) {
  ByteQueue q;
  EXPECT_TRUE(q.empty());
  q.append(to_bytes("hello, "));
  q.append(to_bytes("world"));
  ASSERT_EQ(q.size(), 12u);
  EXPECT_EQ(q[0], 'h');
  EXPECT_EQ(q[11], 'd');
  q.consume(7);
  EXPECT_EQ(to_string(q.copy(0, q.size())), "world");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(q.data()), q.size()),
            "world");
  q.consume(100);  // clamped to what is queued
  EXPECT_TRUE(q.empty());
  q.append(nullptr, 0);
  EXPECT_TRUE(q.empty());
}

TEST(ByteQueue, CopyAtOffsetsLeavesQueueUnchanged) {
  ByteQueue q;
  Bytes data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i * 7);
  }
  q.append(data);
  q.consume(100);
  for (std::size_t off : {0, 1, 450, 899}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, 900 - off}) {
      Bytes want(data.begin() + static_cast<long>(100 + off),
                 data.begin() + static_cast<long>(100 + off + n));
      EXPECT_EQ(q.copy(off, n), want) << off << "+" << n;
    }
  }
  EXPECT_EQ(q.size(), 900u);
  EXPECT_EQ(q.copy(0, 900), Bytes(data.begin() + 100, data.end()));
}

TEST(ByteQueue, CompactionPreservesContentsAgainstReferenceDeque) {
  // Interleave appends and consumes so the head crosses half the buffer
  // many times; the queue must always match a byte-at-a-time deque.
  Rng rng(11);
  ByteQueue q;
  std::deque<u8> ref;
  u8 next = 0;
  for (int step = 0; step < 2000; ++step) {
    Bytes chunk(rng.below(3000));
    for (u8& b : chunk) b = next++;
    q.append(chunk);
    ref.insert(ref.end(), chunk.begin(), chunk.end());
    std::size_t drop = rng.below(3500);
    q.consume(drop);
    ref.erase(ref.begin(),
              ref.begin() + static_cast<long>(std::min(drop, ref.size())));
    ASSERT_EQ(q.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(q[0], ref.front());
      ASSERT_EQ(q[q.size() - 1], ref.back());
    }
  }
  EXPECT_EQ(q.copy(0, q.size()), Bytes(ref.begin(), ref.end()));
}

TEST(ByteQueue, DrainReleasesCapacityAboveRetainedLimit) {
  ByteQueue q;
  q.append(Bytes(4 << 20, 0xAB));
  EXPECT_GE(q.capacity(), std::size_t{4} << 20);
  q.consume(q.size() - 1);
  EXPECT_GE(q.capacity(), std::size_t{4} << 20);  // not drained yet
  q.consume(1);
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.capacity(), ByteQueue::kRetainedCapacity);

  // A small queue keeps its buffer across drains.
  q.append(Bytes(1000, 1));
  const std::size_t cap = q.capacity();
  q.consume(1000);
  EXPECT_EQ(q.capacity(), cap);

  q.append(Bytes(1 << 20, 2));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.capacity(), ByteQueue::kRetainedCapacity);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, RangeBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    i64 v = r.range(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

}  // namespace
}  // namespace zapc
