#include "src/serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/report/json.hpp"
#include "src/serve/chaos.hpp"

namespace agingsim::serve {
namespace {

struct MethodInfo {
  std::string_view name;
  Priority priority;
};

// The protocol surface. Control methods are answered by the server's loop
// itself — they must work when the admission queue is full and every
// worker is busy, that is the point of having them.
constexpr MethodInfo kMethods[] = {
    {"health", Priority::kControl},   {"status", Priority::kControl},
    {"metrics", Priority::kControl},  {"shutdown", Priority::kControl},
    {"query", Priority::kNormal},     {"work", Priority::kNormal},
    {"campaign", Priority::kBatch},
};

const MethodInfo* find_method(std::string_view method) noexcept {
  for (const MethodInfo& m : kMethods) {
    if (m.name == method) return &m;
  }
  return nullptr;
}

std::uint32_t load_le32(const char* p) noexcept {
  const auto b = [&](int i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

void store_le32(std::uint32_t v, char* p) noexcept {
  p[0] = static_cast<char>(v & 0xFF);
  p[1] = static_cast<char>((v >> 8) & 0xFF);
  p[2] = static_cast<char>((v >> 16) & 0xFF);
  p[3] = static_cast<char>((v >> 24) & 0xFF);
}

}  // namespace

std::string_view error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kShedRefill: return "shed_refill";
    case ErrorCode::kShedBatch: return "shed_batch";
    case ErrorCode::kDraining: return "draining";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kQuotaExceeded: return "quota_exceeded";
  }
  return "?";
}

bool valid_client_id(std::string_view id) noexcept {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

Priority method_priority(std::string_view method) noexcept {
  const MethodInfo* info = find_method(method);
  return info != nullptr ? info->priority : Priority::kNormal;
}

std::optional<Request> parse_request(std::string_view payload,
                                     std::string* error_response_out) {
  const auto reject = [&](std::uint64_t id, const std::string& message) {
    if (error_response_out != nullptr) {
      *error_response_out =
          error_response(id, ErrorCode::kBadRequest, message);
    }
    return std::nullopt;
  };

  JsonError jerr;
  const auto doc = parse_json(payload, &jerr);
  if (!doc.has_value()) {
    return reject(0, "JSON parse error at byte " +
                         std::to_string(jerr.offset) + ": " + jerr.message);
  }
  if (!doc->is_object()) return reject(0, "request must be a JSON object");

  const std::uint64_t id = doc->u64_or("id", 0);
  const JsonValue* method = doc->find("method");
  if (method == nullptr || !method->is_string()) {
    return reject(id, "request needs a string 'method'");
  }
  const MethodInfo* info = find_method(method->as_string());
  if (info == nullptr) {
    return reject(id, "unknown method '" + method->as_string() + "'");
  }
  const std::int64_t deadline_ms = doc->i64_or("deadline_ms", 0);
  if (deadline_ms < 0) return reject(id, "deadline_ms must be >= 0");

  Request req;
  req.id = id;
  req.method = method->as_string();
  req.priority = info->priority;
  req.deadline_ms = deadline_ms;
  if (const JsonValue* client = doc->find("client_id")) {
    if (!client->is_string() || !valid_client_id(client->as_string())) {
      return reject(id,
                    "client_id wants 1..64 chars of [A-Za-z0-9._-]");
    }
    req.client_id = client->as_string();
  }
  if (const JsonValue* params = doc->find("params")) {
    if (!params->is_object()) return reject(id, "params must be an object");
    req.params = *params;
  }
  return req;
}

std::string ok_response(std::uint64_t id, std::string_view result_json) {
  std::string out = "{\"id\": ";
  out += std::to_string(id);
  out += ", \"ok\": true, \"result\": ";
  out += result_json;
  out += "}";
  return out;
}

std::string error_response(std::uint64_t id, ErrorCode code,
                           std::string_view message,
                           std::int64_t retry_after_ms) {
  JsonWriter body;
  body.begin_object();
  body.key("code").value(error_code_name(code));
  body.key("message").value(message);
  if (retry_after_ms >= 0) {
    body.key("retry_after_ms").value(retry_after_ms);
  }
  body.end_object();
  std::string out = "{\"id\": ";
  out += std::to_string(id);
  out += ", \"ok\": false, \"error\": ";
  out += body.str();
  out += "}";
  return out;
}

std::string stream_frame(std::uint64_t id, std::uint64_t seq,
                         std::uint64_t units_done, std::uint64_t units_total,
                         std::string_view partial_stats_json) {
  std::string out = "{\"id\": ";
  out += std::to_string(id);
  out += ", \"stream\": ";
  out += std::to_string(seq);
  out += ", \"units_done\": ";
  out += std::to_string(units_done);
  out += ", \"units_total\": ";
  out += std::to_string(units_total);
  out += ", \"partial_stats\": ";
  out += partial_stats_json;
  out += "}";
  return out;
}

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return {};  // caller bug; an empty frame string is never valid
  }
  std::string out;
  out.resize(4 + payload.size());
  store_le32(static_cast<std::uint32_t>(payload.size()), out.data());
  std::memcpy(out.data() + 4, payload.data(), payload.size());
  return out;
}

bool FrameDecoder::feed(std::string_view bytes) {
  if (poisoned_) return false;
  buffer_.append(bytes.data(), bytes.size());
  if (buffer_.size() >= 4 && load_le32(buffer_.data()) > kMaxFrameBytes) {
    poisoned_ = true;
    return false;
  }
  return true;
}

std::optional<std::string> FrameDecoder::next() {
  if (poisoned_ || buffer_.size() < 4) return std::nullopt;
  const std::uint32_t len = load_le32(buffer_.data());
  if (len > kMaxFrameBytes) {
    poisoned_ = true;
    return std::nullopt;
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  std::string payload = buffer_.substr(4, len);
  buffer_.erase(0, 4 + static_cast<std::size_t>(len));
  return payload;
}

bool write_frame_fd(int fd, std::string_view payload, std::string* error) {
  const std::string frame = encode_frame(payload);
  if (frame.empty() && !payload.empty()) {
    if (error != nullptr) *error = "payload exceeds kMaxFrameBytes";
    return false;
  }
  // Chaos disconnect: write a deterministic prefix (at most half the
  // frame, so it always ends mid-frame), then shut the socket down hard.
  if (chaos_drop_write()) {
    const std::size_t prefix = frame.size() / 2;
    std::size_t sent = 0;
    while (sent < prefix) {
      const ssize_t n =
          ::send(fd, frame.data() + sent, prefix - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_RDWR);
    if (error != nullptr) *error = "chaos: mid-frame disconnect";
    return false;
  }
  // MSG_NOSIGNAL: a write racing the peer's disconnect fails with EPIPE
  // instead of killing the process.
  std::size_t done = 0;
  while (done < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + done,
                             chaos_write_chunk(frame.size() - done),
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = std::strerror(errno);
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> read_frame_fd(int fd, std::string* error) {
  const auto read_exact = [&](char* out, std::size_t want,
                              bool eof_ok) -> int {
    std::size_t done = 0;
    while (done < want) {
      const ssize_t n = ::read(fd, out + done, chaos_read_clamp(want - done));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (error != nullptr) *error = std::strerror(errno);
        return -1;
      }
      if (n == 0) {
        if (done == 0 && eof_ok) return 0;  // clean EOF at frame boundary
        if (error != nullptr) *error = "EOF mid-frame";
        return -1;
      }
      done += static_cast<std::size_t>(n);
    }
    return 1;
  };

  char prefix[4];
  const int got = read_exact(prefix, 4, /*eof_ok=*/true);
  if (got <= 0) return std::nullopt;
  const std::uint32_t len = load_le32(prefix);
  if (len > kMaxFrameBytes) {
    if (error != nullptr) *error = "frame length over kMaxFrameBytes";
    return std::nullopt;
  }
  std::string payload(len, '\0');
  if (len > 0 && read_exact(payload.data(), len, /*eof_ok=*/false) <= 0) {
    return std::nullopt;
  }
  return payload;
}

}  // namespace agingsim::serve
