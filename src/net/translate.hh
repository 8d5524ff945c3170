/**
 * @file
 * serve::Response <-> wire::ResponseFrame translation.
 *
 * The wire layer (net/wire.hh) is deliberately standalone — pure
 * bytes, no serving types — so the protocol is testable without a
 * server. These helpers are the one bridge between the two
 * vocabularies, shared by the TCP front end (response out), the
 * client (response in) and the router (response through).
 *
 * The score crosses as its raw IEEE-754 bit pattern in both
 * directions, so translate(translate(x)) is byte-identical — the
 * property the remote determinism tests pin.
 */

#ifndef NSBENCH_NET_TRANSLATE_HH
#define NSBENCH_NET_TRANSLATE_HH

#include "net/wire.hh"
#include "serve/request.hh"

namespace nsbench::net
{

/** Encodes a completed serve::Response for request @p id. */
inline wire::ResponseFrame
toFrame(const serve::Response &response, uint64_t id)
{
    wire::ResponseFrame frame;
    frame.id = id;
    frame.status = static_cast<uint8_t>(response.status);
    frame.setScore(response.score);
    frame.latencySeconds = response.latencySeconds;
    frame.queueSeconds = response.queueSeconds;
    frame.serviceSeconds = response.serviceSeconds;
    frame.neuralSeconds = response.neuralSeconds;
    frame.symbolicSeconds = response.symbolicSeconds;
    frame.shared = static_cast<uint32_t>(
        response.shared < 0 ? 0 : response.shared);
    frame.retries = static_cast<uint32_t>(
        response.retries < 0 ? 0 : response.retries);
    frame.flags = response.cached ? wire::kFlagCached : 0u;
    return frame;
}

/**
 * Decodes a response frame back into a serve::Response. Unknown
 * status values (a newer peer) map to Failed rather than reading
 * out of the enum's range.
 */
inline serve::Response
toResponse(const wire::ResponseFrame &frame)
{
    serve::Response response;
    response.status =
        frame.status <= static_cast<uint8_t>(
                            serve::RequestStatus::Canceled)
            ? static_cast<serve::RequestStatus>(frame.status)
            : serve::RequestStatus::Failed;
    response.score = frame.score();
    response.latencySeconds = frame.latencySeconds;
    response.queueSeconds = frame.queueSeconds;
    response.serviceSeconds = frame.serviceSeconds;
    response.neuralSeconds = frame.neuralSeconds;
    response.symbolicSeconds = frame.symbolicSeconds;
    response.shared = static_cast<int>(frame.shared);
    response.retries = static_cast<int>(frame.retries);
    response.cached = (frame.flags & wire::kFlagCached) != 0;
    return response;
}

} // namespace nsbench::net

#endif // NSBENCH_NET_TRANSLATE_HH
