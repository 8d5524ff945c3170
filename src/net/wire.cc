#include "net/wire.hh"

#include <algorithm>
#include <cstring>

namespace nsbench::net::wire
{

namespace
{

/** Little-endian append helpers (host-order independent). */
void
putU8(std::vector<uint8_t> *out, uint8_t value)
{
    out->push_back(value);
}

void
putU16(std::vector<uint8_t> *out, uint16_t value)
{
    out->push_back(static_cast<uint8_t>(value));
    out->push_back(static_cast<uint8_t>(value >> 8));
}

void
putU32(std::vector<uint8_t> *out, uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        out->push_back(static_cast<uint8_t>(value >> shift));
}

void
putU64(std::vector<uint8_t> *out, uint64_t value)
{
    for (int shift = 0; shift < 64; shift += 8)
        out->push_back(static_cast<uint8_t>(value >> shift));
}

void
putF64(std::vector<uint8_t> *out, double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    putU64(out, bits);
}

/**
 * Bounds-checked little-endian reader over a frame body. Every get
 * reports failure instead of reading past the end; decoders check
 * ok() once at the end (failed gets return zeroes, which are then
 * discarded).
 */
class Cursor
{
  public:
    Cursor(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    uint8_t
    getU8()
    {
        if (!take(1))
            return 0;
        return data_[pos_ - 1];
    }

    uint16_t
    getU16()
    {
        if (!take(2))
            return 0;
        const uint8_t *p = data_ + pos_ - 2;
        return static_cast<uint16_t>(p[0] |
                                     (static_cast<uint16_t>(p[1])
                                      << 8));
    }

    uint32_t
    getU32()
    {
        if (!take(4))
            return 0;
        const uint8_t *p = data_ + pos_ - 4;
        uint32_t value = 0;
        for (int i = 3; i >= 0; i--)
            value = (value << 8) | p[i];
        return value;
    }

    uint64_t
    getU64()
    {
        if (!take(8))
            return 0;
        const uint8_t *p = data_ + pos_ - 8;
        uint64_t value = 0;
        for (int i = 7; i >= 0; i--)
            value = (value << 8) | p[i];
        return value;
    }

    double
    getF64()
    {
        uint64_t bits = getU64();
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof value);
        return value;
    }

    std::string
    getString(size_t length)
    {
        if (!take(length))
            return {};
        return std::string(
            reinterpret_cast<const char *>(data_ + pos_ - length),
            length);
    }

    /** True iff no get ever ran past the end. */
    bool ok() const { return ok_; }

    /** True iff the body was consumed exactly (no trailing bytes). */
    bool exhausted() const { return ok_ && pos_ == size_; }

  private:
    bool
    take(size_t n)
    {
        if (!ok_ || size_ - pos_ < n) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Frames a finished body: length prefix + splice into @p out. */
void
frameBody(const std::vector<uint8_t> &body, std::vector<uint8_t> *out)
{
    putU32(out, static_cast<uint32_t>(body.size()));
    out->insert(out->end(), body.begin(), body.end());
}

void
encodeHelloBody(FrameType type, const HelloFrame &hello,
                std::vector<uint8_t> *out)
{
    std::vector<uint8_t> body;
    putU8(&body, static_cast<uint8_t>(type));
    putU32(&body, hello.magic);
    putU16(&body, hello.version);
    frameBody(body, out);
}

} // namespace

void
encodeHello(const HelloFrame &hello, std::vector<uint8_t> *out)
{
    encodeHelloBody(FrameType::Hello, hello, out);
}

void
encodeHelloAck(const HelloFrame &hello, std::vector<uint8_t> *out)
{
    encodeHelloBody(FrameType::HelloAck, hello, out);
}

void
encodeRequest(const RequestFrame &request, std::vector<uint8_t> *out)
{
    std::vector<uint8_t> body;
    putU8(&body, static_cast<uint8_t>(FrameType::Request));
    putU64(&body, request.id);
    putU64(&body, request.episodeSeed);
    putU64(&body, request.modelSeed);
    putU32(&body, request.deadlineUs);
    putU32(&body, request.flags);
    putU16(&body, static_cast<uint16_t>(request.workload.size()));
    body.insert(body.end(), request.workload.begin(),
                request.workload.end());
    frameBody(body, out);
}

void
encodeResponse(uint64_t id, const serve::Response &response,
               std::vector<uint8_t> *out)
{
    std::vector<uint8_t> body;
    putU8(&body, static_cast<uint8_t>(FrameType::Response));
    putU64(&body, id);
    putU8(&body, static_cast<uint8_t>(response.status));
    putF64(&body, response.score);
    putF64(&body, response.latencySeconds);
    putF64(&body, response.queueSeconds);
    putF64(&body, response.serviceSeconds);
    putF64(&body, response.neuralSeconds);
    putF64(&body, response.symbolicSeconds);
    putU32(&body, 0); // Reserved (batch size).
    putU32(&body, static_cast<uint32_t>(std::max(response.shared, 0)));
    putU32(&body, static_cast<uint32_t>(std::max(response.retries, 0)));
    putU32(&body, response.cached ? kFlagCached : 0u);
    frameBody(body, out);
}

void
encodeCancel(const CancelFrame &cancel, std::vector<uint8_t> *out)
{
    std::vector<uint8_t> body;
    putU8(&body, static_cast<uint8_t>(FrameType::Cancel));
    putU64(&body, cancel.id);
    frameBody(body, out);
}

DecodeResult
tryDecode(const uint8_t *buffer, size_t size, Frame *frame)
{
    if (size < 4)
        return {DecodeStatus::NeedMore, 0};
    uint32_t length = 0;
    for (int i = 3; i >= 0; i--)
        length = (length << 8) | buffer[i];
    // An empty body cannot even hold the type byte; an oversized one
    // is a length-bomb. Both are protocol violations, not short reads.
    if (length == 0 || length > kMaxBody)
        return {DecodeStatus::Malformed, 0};
    if (size - 4 < length)
        return {DecodeStatus::NeedMore, 0};

    Cursor cursor(buffer + 4, length);
    uint8_t type = cursor.getU8();
    switch (static_cast<FrameType>(type)) {
    case FrameType::Hello:
    case FrameType::HelloAck: {
        frame->type = static_cast<FrameType>(type);
        frame->hello.magic = cursor.getU32();
        frame->hello.version = cursor.getU16();
        break;
    }
    case FrameType::Request: {
        frame->type = FrameType::Request;
        RequestFrame &request = frame->request;
        request.id = cursor.getU64();
        request.episodeSeed = cursor.getU64();
        request.modelSeed = cursor.getU64();
        request.deadlineUs = cursor.getU32();
        request.flags = cursor.getU32();
        uint16_t nameLength = cursor.getU16();
        if (nameLength == 0 || nameLength > kMaxWorkloadName)
            return {DecodeStatus::Malformed, 0};
        request.workload = cursor.getString(nameLength);
        break;
    }
    case FrameType::Response: {
        frame->type = FrameType::Response;
        frame->responseId = cursor.getU64();
        serve::Response &response = frame->response;
        uint8_t status = cursor.getU8();
        response.status =
            status <= static_cast<uint8_t>(serve::RequestStatus::Canceled)
                ? static_cast<serve::RequestStatus>(status)
                : serve::RequestStatus::Failed;
        response.score = cursor.getF64();
        response.latencySeconds = cursor.getF64();
        response.queueSeconds = cursor.getF64();
        response.serviceSeconds = cursor.getF64();
        response.neuralSeconds = cursor.getF64();
        response.symbolicSeconds = cursor.getF64();
        cursor.getU32(); // Reserved (batch size).
        response.shared = static_cast<int>(cursor.getU32());
        response.retries = static_cast<int>(cursor.getU32());
        response.cached = (cursor.getU32() & kFlagCached) != 0;
        break;
    }
    case FrameType::Cancel: {
        frame->type = FrameType::Cancel;
        frame->cancel.id = cursor.getU64();
        break;
    }
    default:
        return {DecodeStatus::Malformed, 0};
    }
    // A frame whose fields ran short, or whose body carries trailing
    // junk, is malformed — exact framing is part of the contract.
    if (!cursor.exhausted())
        return {DecodeStatus::Malformed, 0};
    return {DecodeStatus::Ok, 4 + static_cast<size_t>(length)};
}

void
FrameReader::append(const uint8_t *data, size_t size)
{
    buffer_.insert(buffer_.end(), data, data + size);
}

DecodeStatus
FrameReader::next(Frame *frame)
{
    DecodeResult result = tryDecode(buffer_.data() + offset_,
                                    buffer_.size() - offset_, frame);
    if (result.status == DecodeStatus::Ok) {
        offset_ += result.consumed;
    } else if (result.status == DecodeStatus::NeedMore) {
        // Drop the decoded prefix once per read, not once per frame.
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<long>(offset_));
        offset_ = 0;
    }
    return result.status;
}

} // namespace nsbench::net::wire
