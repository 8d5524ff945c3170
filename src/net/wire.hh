/**
 * @file
 * The nsbench serving wire protocol.
 *
 * A versioned, length-prefixed binary framing for driving a
 * serve::Server over a byte stream. Every frame is
 *
 *     u32 bodyLength | u8 frameType | payload...
 *
 * with every integer little-endian on the wire regardless of host
 * order (explicit byte-at-a-time encode/decode, no struct punning).
 * Scores travel as the raw 8-byte IEEE-754 bit pattern of the double,
 * so a remote response is *byte-identical* to the in-process score —
 * the determinism contract survives the network hop.
 *
 * A connection opens with a handshake: the client sends Hello (magic
 * + protocol version), the server answers HelloAck or closes. After
 * the handshake the client sends Request frames and the server
 * answers one Response frame per request, matched by the
 * client-chosen request id; responses may arrive in any order
 * (pipelining).
 *
 * The wire shares serve/request.hh's plain types: a Response frame
 * carries a serve::Response (encodeResponse() writes one, decode fills
 * one), so the front end, the client and the router hand the same
 * value through without a translation layer. Nothing here needs a
 * server, so the protocol is still tested as bytes alone.
 *
 * Decoding is defensive by construction: tryDecode() never reads past
 * the buffered bytes, rejects bodies above kMaxBody, and classifies
 * every violation as Malformed — the transport's contract is to close
 * such a connection, never to crash or hang (the `net` test tier
 * feeds a corpus of truncated/oversized/garbage frames to enforce
 * this). Every reader in net/ receives through one FrameReader.
 */

#ifndef NSBENCH_NET_WIRE_HH
#define NSBENCH_NET_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hh"

namespace nsbench::net::wire
{

/** Handshake magic ("NSBW" little-endian). */
inline constexpr uint32_t kMagic = 0x5742534E;

/** Protocol version this library speaks. Version history:
 *   1 — Hello/HelloAck/Request/Response.
 *   2 — adds Cancel (client -> server, best-effort hedge pruning).
 * Handshakes accept any version in [kMinVersion, kVersion]; a peer
 * that acked version 1 is never sent Cancel frames. */
inline constexpr uint16_t kVersion = 2;

/** Oldest protocol version still accepted in a handshake. */
inline constexpr uint16_t kMinVersion = 1;

/** Hard upper bound on a frame body; larger lengths are malformed. */
inline constexpr uint32_t kMaxBody = 16 * 1024;

/** Longest accepted workload name on the wire. */
inline constexpr size_t kMaxWorkloadName = 256;

/** Frame discriminator (first body byte). */
enum class FrameType : uint8_t
{
    Hello = 1,    ///< Client -> server handshake open.
    HelloAck = 2, ///< Server -> client handshake accept.
    Request = 3,  ///< Client -> server inference request.
    Response = 4, ///< Server -> client completion record.
    Cancel = 5,   ///< Client -> server: abandon a request (v2+).
};

/** Handshake payload (both directions). */
struct HelloFrame
{
    uint32_t magic = kMagic;
    uint16_t version = kVersion;
};

/** Response flag bit: served from the result cache
 *  (serve::Response::cached). The other bits are reserved and sent as
 *  zero. */
inline constexpr uint32_t kFlagCached = 1u << 0;

/**
 * One inference request. The model seed is informational — a server
 * builds its replicas once at its own model seed; 0 means "whatever
 * the server was built with" and routers hash it for affinity.
 * The deadline is *relative* (microseconds from receipt; 0 = none)
 * so the protocol needs no clock synchronization.
 */
struct RequestFrame
{
    uint64_t id = 0;          ///< Client-chosen correlation id.
    uint64_t episodeSeed = 0; ///< Episode-stream seed to evaluate.
    uint64_t modelSeed = 0;   ///< 0 -> server default.
    uint32_t deadlineUs = 0;  ///< Relative deadline; 0 -> none.
    uint32_t flags = 0;       ///< Reserved; must echo as sent.
    std::string workload;     ///< Registered workload name.
};

/**
 * Best-effort abandonment of an earlier Request (hedged duplicates
 * that lost the race). The server may still answer the request —
 * cancellation is advisory, and the Cancel itself is never
 * acknowledged. Protocol version 2+.
 */
struct CancelFrame
{
    uint64_t id = 0; ///< Correlation id of the request to abandon.
};

/** A decoded frame: `type` selects which members are meaningful. */
struct Frame
{
    FrameType type = FrameType::Hello;
    HelloFrame hello;
    RequestFrame request;
    uint64_t responseId = 0;  ///< A Response's correlation id.
    serve::Response response; ///< A Response's completion record.
    CancelFrame cancel;
};

/** Outcome of one tryDecode() attempt. */
enum class DecodeStatus
{
    NeedMore,  ///< Buffer holds a frame prefix; read more bytes.
    Ok,        ///< One frame decoded; `consumed` bytes were used.
    Malformed, ///< Protocol violation; close the connection.
};

/** tryDecode() result: status plus bytes consumed on Ok. */
struct DecodeResult
{
    DecodeStatus status = DecodeStatus::NeedMore;
    size_t consumed = 0;
};

/** Appends an encoded Hello frame to @p out. */
void encodeHello(const HelloFrame &hello, std::vector<uint8_t> *out);

/** Appends an encoded HelloAck frame to @p out. */
void encodeHelloAck(const HelloFrame &hello,
                    std::vector<uint8_t> *out);

/** Appends an encoded Request frame to @p out. */
void encodeRequest(const RequestFrame &request,
                   std::vector<uint8_t> *out);

/**
 * Appends the Response frame answering request @p id to @p out. The
 * body is u64 id | u8 status | f64 score | f64 latency, queue,
 * service, neural, symbolic seconds | u32 reserved (zero) | u32
 * shared | u32 retries | u32 flags; negative counts are sent as 0.
 * Decoding maps a status byte above Canceled (a newer peer) to
 * Failed rather than reading out of the enum's range.
 */
void encodeResponse(uint64_t id, const serve::Response &response,
                    std::vector<uint8_t> *out);

/** Appends an encoded Cancel frame to @p out (protocol v2+). */
void encodeCancel(const CancelFrame &cancel,
                  std::vector<uint8_t> *out);

/**
 * Attempts to decode one frame from the front of
 * @p buffer[0..size). On Ok fills @p frame and reports how many
 * bytes the frame occupied (a read may have buffered several frames;
 * FrameReader steps through them). Never reads past @p size.
 */
DecodeResult tryDecode(const uint8_t *buffer, size_t size,
                       Frame *frame);

/**
 * The receive side of one connection: bytes in, whole frames out.
 * Callers append what recv() returned, then take frames with next()
 * until NeedMore. Malformed means the stream is dead — close it.
 */
class FrameReader
{
  public:
    /** Buffers @p size received bytes. */
    void append(const uint8_t *data, size_t size);

    /** Decodes the next whole buffered frame into @p frame (Ok), or
     *  reports NeedMore or Malformed and leaves @p frame unspecified. */
    DecodeStatus next(Frame *frame);

  private:
    std::vector<uint8_t> buffer_;
    size_t offset_ = 0; ///< Decoded prefix of buffer_.
};

} // namespace nsbench::net::wire

#endif // NSBENCH_NET_WIRE_HH
