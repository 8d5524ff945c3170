/**
 * @file
 * Wire-protocol unit tests: encode/decode round-trip properties over
 * randomized frames, the encoded bytes of every frame type pinned as
 * hex, incremental (streamed) delivery through tryDecode and through
 * FrameReader, and a malformed-input corpus — truncations, oversized
 * and zero lengths, unknown types, bad name lengths, trailing junk,
 * and raw garbage — that must always produce a clean
 * NeedMore/Malformed verdict, never a crash or an over-read
 * (ASan/TSan in CI back that claim).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "net/wire.hh"

namespace
{

using namespace nsbench;
using namespace nsbench::net;

/** Little-endian emit helpers for hand-building malformed frames. */
void
putU8(std::vector<uint8_t> *out, uint8_t v)
{
    out->push_back(v);
}

void
putU16(std::vector<uint8_t> *out, uint16_t v)
{
    out->push_back(static_cast<uint8_t>(v));
    out->push_back(static_cast<uint8_t>(v >> 8));
}

void
putU32(std::vector<uint8_t> *out, uint32_t v)
{
    for (int i = 0; i < 4; i++)
        out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> *out, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

wire::DecodeResult
decode(const std::vector<uint8_t> &bytes, wire::Frame *frame)
{
    return wire::tryDecode(bytes.data(), bytes.size(), frame);
}

std::string
hex(const std::vector<uint8_t> &bytes)
{
    std::string out;
    char byte[3];
    for (uint8_t b : bytes) {
        std::snprintf(byte, sizeof byte, "%02x", b);
        out += byte;
    }
    return out;
}

TEST(Wire, HelloRoundTrip)
{
    std::vector<uint8_t> bytes;
    wire::encodeHello(wire::HelloFrame{}, &bytes);
    wire::Frame frame;
    wire::DecodeResult result = decode(bytes, &frame);
    ASSERT_EQ(result.status, wire::DecodeStatus::Ok);
    EXPECT_EQ(result.consumed, bytes.size());
    EXPECT_EQ(frame.type, wire::FrameType::Hello);
    EXPECT_EQ(frame.hello.magic, wire::kMagic);
    EXPECT_EQ(frame.hello.version, wire::kVersion);

    bytes.clear();
    wire::encodeHelloAck(wire::HelloFrame{}, &bytes);
    result = decode(bytes, &frame);
    ASSERT_EQ(result.status, wire::DecodeStatus::Ok);
    EXPECT_EQ(frame.type, wire::FrameType::HelloAck);
}

TEST(Wire, RequestRoundTripProperty)
{
    std::mt19937_64 rng(20260808);
    for (int trial = 0; trial < 500; trial++) {
        wire::RequestFrame request;
        request.id = rng();
        request.episodeSeed = rng();
        request.modelSeed = rng();
        request.deadlineUs = static_cast<uint32_t>(rng());
        request.flags = static_cast<uint32_t>(rng());
        size_t name_len = 1 + rng() % wire::kMaxWorkloadName;
        request.workload.resize(name_len);
        for (char &c : request.workload)
            c = static_cast<char>(rng());

        std::vector<uint8_t> bytes;
        wire::encodeRequest(request, &bytes);
        wire::Frame frame;
        wire::DecodeResult result = decode(bytes, &frame);
        ASSERT_EQ(result.status, wire::DecodeStatus::Ok)
            << "trial " << trial;
        ASSERT_EQ(result.consumed, bytes.size());
        ASSERT_EQ(frame.type, wire::FrameType::Request);
        EXPECT_EQ(frame.request.id, request.id);
        EXPECT_EQ(frame.request.episodeSeed, request.episodeSeed);
        EXPECT_EQ(frame.request.modelSeed, request.modelSeed);
        EXPECT_EQ(frame.request.deadlineUs, request.deadlineUs);
        EXPECT_EQ(frame.request.flags, request.flags);
        EXPECT_EQ(frame.request.workload, request.workload);
    }
}

TEST(Wire, ResponseRoundTripProperty)
{
    constexpr int kCanceled =
        static_cast<int>(serve::RequestStatus::Canceled);
    std::mt19937_64 rng(777);
    std::uniform_real_distribution<double> uniform(-1e6, 1e6);
    for (int trial = 0; trial < 500; trial++) {
        uint64_t id = rng();
        serve::Response response;
        response.status =
            static_cast<serve::RequestStatus>(rng() % (kCanceled + 1));
        response.latencySeconds = uniform(rng);
        response.queueSeconds = uniform(rng);
        response.serviceSeconds = uniform(rng);
        response.neuralSeconds = uniform(rng);
        response.symbolicSeconds = uniform(rng);
        // Arbitrary score bits, incl. NaNs, and the full int range.
        uint64_t bits = rng();
        std::memcpy(&response.score, &bits, sizeof bits);
        response.shared = static_cast<int>(rng() & 0x7fffffff);
        response.retries = static_cast<int>(rng() & 0x7fffffff);
        response.cached = rng() & 1;

        std::vector<uint8_t> bytes;
        wire::encodeResponse(id, response, &bytes);
        wire::Frame frame;
        wire::DecodeResult result = decode(bytes, &frame);
        ASSERT_EQ(result.status, wire::DecodeStatus::Ok);
        ASSERT_EQ(frame.type, wire::FrameType::Response);
        EXPECT_EQ(frame.responseId, id);
        const serve::Response &got = frame.response;
        EXPECT_EQ(got.status, response.status);
        // Bit-exact: the determinism contract travels as raw IEEE
        // bits, so even NaN payloads must survive.
        EXPECT_EQ(std::memcmp(&got.score, &response.score,
                              sizeof got.score),
                  0);
        EXPECT_EQ(got.latencySeconds, response.latencySeconds);
        EXPECT_EQ(got.queueSeconds, response.queueSeconds);
        EXPECT_EQ(got.serviceSeconds, response.serviceSeconds);
        EXPECT_EQ(got.neuralSeconds, response.neuralSeconds);
        EXPECT_EQ(got.symbolicSeconds, response.symbolicSeconds);
        EXPECT_EQ(got.shared, response.shared);
        EXPECT_EQ(got.retries, response.retries);
        EXPECT_EQ(got.cached, response.cached);

        // A status byte above Canceled (a newer peer's) reads as
        // Failed, never as an out-of-range enum value. The status
        // sits after the 4-byte length, the type byte and the id.
        bytes[4 + 1 + 8] =
            static_cast<uint8_t>(kCanceled + 1 + rng() % (255 - kCanceled));
        ASSERT_EQ(decode(bytes, &frame).status, wire::DecodeStatus::Ok);
        EXPECT_EQ(frame.response.status, serve::RequestStatus::Failed);
    }
}

TEST(Wire, ScoreBitsPreserveNonFiniteDoubles)
{
    for (double value :
         {0.0, -0.0, 1.0 / 3.0, std::nan("0x42"),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::denorm_min()}) {
        serve::Response response;
        response.score = value;
        std::vector<uint8_t> bytes;
        wire::encodeResponse(1, response, &bytes);
        wire::Frame frame;
        ASSERT_EQ(decode(bytes, &frame).status,
                  wire::DecodeStatus::Ok);
        double got = frame.response.score;
        EXPECT_EQ(std::memcmp(&got, &value, sizeof value), 0);
    }
}

TEST(Wire, EncodedBytesArePinned)
{
    // Every frame type as the protocol-v2 encoder wrote it before the
    // wire shared serve::Response: the bytes may never change within
    // a protocol version.
    std::vector<uint8_t> bytes;
    wire::encodeHello(wire::HelloFrame{}, &bytes);
    EXPECT_EQ(hex(bytes), "07000000014e5342570200");

    bytes.clear();
    wire::HelloFrame v1;
    v1.version = 1;
    wire::encodeHelloAck(v1, &bytes);
    EXPECT_EQ(hex(bytes), "07000000024e5342570100");

    bytes.clear();
    wire::RequestFrame request;
    request.id = 0x0102030405060708ULL;
    request.episodeSeed = 42;
    request.modelSeed = 7;
    request.deadlineUs = 250000;
    request.workload = "ZeroC";
    wire::encodeRequest(request, &bytes);
    EXPECT_EQ(hex(bytes),
              "280000000308070605040302012a0000000000000007000000"
              "0000000090d003000000000005005a65726f43");

    bytes.clear();
    serve::Response ok;
    ok.score = 0.625;
    ok.latencySeconds = 0.5;
    ok.queueSeconds = 0.25;
    ok.serviceSeconds = 0.125;
    ok.neuralSeconds = 0.0625;
    ok.symbolicSeconds = 0.03125;
    ok.shared = 3;
    ok.retries = 1;
    ok.cached = true;
    wire::encodeResponse(9, ok, &bytes);
    EXPECT_EQ(hex(bytes),
              "4a00000004090000000000000000000000000000e43f00000000"
              "0000e03f000000000000d03f000000000000c03f000000000000"
              "b03f000000000000a03f00000000030000000100000001000000");

    // A negative count goes out as 0; the reserved word stays 0.
    bytes.clear();
    serve::Response canceled;
    canceled.status = serve::RequestStatus::Canceled;
    canceled.latencySeconds = 1.5;
    canceled.shared = -1;
    wire::encodeResponse(0xfffffffffffffffeULL, canceled, &bytes);
    EXPECT_EQ(hex(bytes),
              "4a00000004feffffffffffffff09000000000000000000000000"
              "0000f83f00000000000000000000000000000000000000000000"
              "0000000000000000000000000000000000000000000000000000");

    bytes.clear();
    wire::encodeCancel(wire::CancelFrame{0x1122334455667788ULL},
                       &bytes);
    EXPECT_EQ(hex(bytes), "09000000058877665544332211");
}

TEST(Wire, EveryTruncationNeedsMore)
{
    wire::RequestFrame request;
    request.id = 7;
    request.workload = "ZeroC";
    std::vector<uint8_t> bytes;
    wire::encodeRequest(request, &bytes);
    for (size_t len = 0; len < bytes.size(); len++) {
        wire::Frame frame;
        wire::DecodeResult result =
            wire::tryDecode(bytes.data(), len, &frame);
        EXPECT_EQ(result.status, wire::DecodeStatus::NeedMore)
            << "prefix length " << len;
        EXPECT_EQ(result.consumed, 0u);
    }
}

TEST(Wire, StreamedDeliveryDecodesAtExactCompletion)
{
    serve::Response response;
    response.score = 0.25;
    std::vector<uint8_t> bytes;
    wire::encodeResponse(9, response, &bytes);

    std::vector<uint8_t> buffer;
    for (size_t i = 0; i < bytes.size(); i++) {
        buffer.push_back(bytes[i]);
        wire::Frame frame;
        wire::DecodeResult result =
            wire::tryDecode(buffer.data(), buffer.size(), &frame);
        if (i + 1 < bytes.size()) {
            EXPECT_EQ(result.status, wire::DecodeStatus::NeedMore);
        } else {
            ASSERT_EQ(result.status, wire::DecodeStatus::Ok);
            EXPECT_EQ(frame.responseId, 9u);
            EXPECT_EQ(frame.response.score, 0.25);
        }
    }
}

TEST(Wire, BackToBackFramesConsumeExactly)
{
    std::vector<uint8_t> bytes;
    wire::encodeHello(wire::HelloFrame{}, &bytes);
    wire::RequestFrame request;
    request.id = 1;
    request.workload = "LNN";
    wire::encodeRequest(request, &bytes);

    wire::Frame frame;
    wire::DecodeResult first = decode(bytes, &frame);
    ASSERT_EQ(first.status, wire::DecodeStatus::Ok);
    EXPECT_EQ(frame.type, wire::FrameType::Hello);
    wire::DecodeResult second =
        wire::tryDecode(bytes.data() + first.consumed,
                        bytes.size() - first.consumed, &frame);
    ASSERT_EQ(second.status, wire::DecodeStatus::Ok);
    EXPECT_EQ(frame.type, wire::FrameType::Request);
    EXPECT_EQ(first.consumed + second.consumed, bytes.size());
}

TEST(Wire, FrameReaderCutsAnyChunkingIntoTheSameFrames)
{
    std::vector<uint8_t> stream;
    wire::encodeHello(wire::HelloFrame{}, &stream);
    for (uint64_t id = 1; id <= 20; id++) {
        wire::RequestFrame request;
        request.id = id;
        request.workload = "LNN";
        wire::encodeRequest(request, &stream);
        serve::Response response;
        response.score = static_cast<double>(id) / 8.0;
        wire::encodeResponse(id, response, &stream);
        wire::encodeCancel(wire::CancelFrame{id}, &stream);
    }

    std::mt19937_64 rng(5150);
    for (int trial = 0; trial < 50; trial++) {
        wire::FrameReader reader;
        std::vector<wire::FrameType> types;
        uint64_t idSum = 0;
        size_t offset = 0;
        while (offset < stream.size()) {
            size_t chunk =
                std::min<size_t>(1 + rng() % 64, stream.size() - offset);
            reader.append(stream.data() + offset, chunk);
            offset += chunk;
            wire::Frame frame;
            wire::DecodeStatus status;
            while ((status = reader.next(&frame)) ==
                   wire::DecodeStatus::Ok) {
                types.push_back(frame.type);
                if (frame.type == wire::FrameType::Response) {
                    idSum += frame.responseId;
                    EXPECT_EQ(frame.response.score,
                              static_cast<double>(frame.responseId) / 8.0);
                }
            }
            ASSERT_EQ(status, wire::DecodeStatus::NeedMore);
        }
        ASSERT_EQ(types.size(), 61u) << "trial " << trial;
        EXPECT_EQ(types.front(), wire::FrameType::Hello);
        for (size_t i = 1; i < types.size(); i += 3) {
            EXPECT_EQ(types[i], wire::FrameType::Request);
            EXPECT_EQ(types[i + 1], wire::FrameType::Response);
            EXPECT_EQ(types[i + 2], wire::FrameType::Cancel);
        }
        EXPECT_EQ(idSum, 210u);
    }

    // Garbage after whole frames: they still come out, then the
    // stream is reported dead.
    wire::FrameReader reader;
    std::vector<uint8_t> bytes;
    wire::encodeHello(wire::HelloFrame{}, &bytes);
    putU32(&bytes, 0xffffffffu);
    reader.append(bytes.data(), bytes.size());
    wire::Frame frame;
    EXPECT_EQ(reader.next(&frame), wire::DecodeStatus::Ok);
    EXPECT_EQ(reader.next(&frame), wire::DecodeStatus::Malformed);
}

TEST(Wire, ZeroLengthFrameIsMalformed)
{
    std::vector<uint8_t> bytes;
    putU32(&bytes, 0);
    wire::Frame frame;
    EXPECT_EQ(decode(bytes, &frame).status,
              wire::DecodeStatus::Malformed);
}

TEST(Wire, OversizedLengthIsMalformed)
{
    for (uint32_t length :
         {wire::kMaxBody + 1, 0x7fffffffu, 0xffffffffu}) {
        std::vector<uint8_t> bytes;
        putU32(&bytes, length);
        putU8(&bytes, static_cast<uint8_t>(wire::FrameType::Request));
        wire::Frame frame;
        EXPECT_EQ(decode(bytes, &frame).status,
                  wire::DecodeStatus::Malformed)
            << "length " << length;
    }
}

TEST(Wire, UnknownFrameTypeIsMalformed)
{
    // 5 is Cancel since protocol v2; 6 is the first unassigned type.
    for (uint8_t type : {uint8_t(0), uint8_t(6), uint8_t(0xff)}) {
        std::vector<uint8_t> bytes;
        putU32(&bytes, 1);
        putU8(&bytes, type);
        wire::Frame frame;
        EXPECT_EQ(decode(bytes, &frame).status,
                  wire::DecodeStatus::Malformed)
            << "type " << int(type);
    }
}


/** Builds a request body by hand with a chosen workload length
 *  field, so length-field lies are testable. */
std::vector<uint8_t>
handRequest(uint16_t claimed_name_len, const std::string &name,
            size_t extra_trailing = 0)
{
    std::vector<uint8_t> body;
    putU8(&body, static_cast<uint8_t>(wire::FrameType::Request));
    putU64(&body, 1); // id
    putU64(&body, 2); // episodeSeed
    putU64(&body, 3); // modelSeed
    putU32(&body, 0); // deadlineUs
    putU32(&body, 0); // flags
    putU16(&body, claimed_name_len);
    body.insert(body.end(), name.begin(), name.end());
    for (size_t i = 0; i < extra_trailing; i++)
        putU8(&body, 0xee);

    std::vector<uint8_t> bytes;
    putU32(&bytes, static_cast<uint32_t>(body.size()));
    bytes.insert(bytes.end(), body.begin(), body.end());
    return bytes;
}

TEST(Wire, EmptyWorkloadNameIsMalformed)
{
    wire::Frame frame;
    EXPECT_EQ(decode(handRequest(0, ""), &frame).status,
              wire::DecodeStatus::Malformed);
}

TEST(Wire, NameLengthBeyondBodyIsMalformed)
{
    // Claims 32 name bytes but carries only 3.
    wire::Frame frame;
    EXPECT_EQ(decode(handRequest(32, "LNN"), &frame).status,
              wire::DecodeStatus::Malformed);
}

TEST(Wire, NameLengthOverCapIsMalformed)
{
    std::string name(wire::kMaxWorkloadName + 1, 'x');
    wire::Frame frame;
    EXPECT_EQ(decode(handRequest(static_cast<uint16_t>(name.size()),
                                 name),
                     &frame)
                  .status,
              wire::DecodeStatus::Malformed);
}

TEST(Wire, TrailingJunkInBodyIsMalformed)
{
    wire::Frame frame;
    EXPECT_EQ(decode(handRequest(3, "LNN", 5), &frame).status,
              wire::DecodeStatus::Malformed);
}

TEST(Wire, TruncatedFixedFieldsAreMalformed)
{
    // Bodies shorter than their fixed fields: the length prefix is
    // honest (body complete), but the cursor runs dry. A Request
    // with its id only, and a Cancel without its id.
    std::vector<uint8_t> request;
    putU8(&request, static_cast<uint8_t>(wire::FrameType::Request));
    putU64(&request, 1);
    std::vector<uint8_t> cancel;
    putU8(&cancel, static_cast<uint8_t>(wire::FrameType::Cancel));
    for (const std::vector<uint8_t> &body : {request, cancel}) {
        std::vector<uint8_t> bytes;
        putU32(&bytes, static_cast<uint32_t>(body.size()));
        bytes.insert(bytes.end(), body.begin(), body.end());
        wire::Frame frame;
        EXPECT_EQ(decode(bytes, &frame).status,
                  wire::DecodeStatus::Malformed)
            << "type " << int(body[0]);
    }
}

TEST(Wire, GarbageFuzzNeverCrashesOrOverreads)
{
    std::mt19937_64 rng(424242);
    for (int trial = 0; trial < 20000; trial++) {
        size_t size = rng() % 96;
        std::vector<uint8_t> bytes(size);
        for (uint8_t &b : bytes)
            b = static_cast<uint8_t>(rng());
        wire::Frame frame;
        wire::DecodeResult result =
            wire::tryDecode(bytes.data(), bytes.size(), &frame);
        if (result.status == wire::DecodeStatus::Ok) {
            EXPECT_LE(result.consumed, bytes.size());
            EXPECT_GE(result.consumed, 5u);
        } else {
            EXPECT_EQ(result.consumed, 0u);
        }
    }
}

} // namespace
