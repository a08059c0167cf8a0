#include "runner/record_codec.hpp"

#include <cstdio>
#include <cstring>
#include <type_traits>

namespace bng::runner {

// --- Binary primitives (explicit little-endian, host-independent) -----------

namespace wire {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void Reader::need(std::size_t n) const {
  if (pos + n > data.size()) throw CodecError("wire data truncated");
}

std::uint8_t Reader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data[pos++]);
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i)
    v |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(data[pos + i])) << (8 * i);
  pos += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[pos + i])) << (8 * i);
  pos += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data[pos + i])) << (8 * i);
  pos += 8;
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Reader::str(std::size_t n) {
  need(n);
  std::string s(data.substr(pos, n));
  pos += n;
  return s;
}

}  // namespace wire

namespace {

using wire::put_f64;
using wire::put_u16;
using wire::put_u32;
using wire::put_u64;

constexpr char kMagic[4] = {'B', 'N', 'G', 'R'};

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string encode_record(const RunRecord& r) {
  std::string out;
  out.reserve(64 + r.values.size() * 32);
  out.append(kMagic, sizeof kMagic);
  put_u16(out, kRecordCodecVersion);
  put_u32(out, r.point);
  put_u32(out, r.ordinal);
  put_u64(out, r.seed);
  put_u64(out, r.digest);
  out.push_back(r.attacker ? 1 : 0);
  if (r.attacker) {
    metrics::visit_attacker_fields(*r.attacker, [&out](const char*, auto v) {
      using T = std::decay_t<decltype(v)>;
      if constexpr (std::is_same_v<T, double>) put_f64(out, v);
      else if constexpr (std::is_same_v<T, std::uint32_t>) put_u32(out, v);
      else put_u64(out, v);
    });
  }
  put_u32(out, static_cast<std::uint32_t>(r.values.size()));
  for (const auto& [name, value] : r.values) {
    if (name.size() > UINT16_MAX) throw CodecError("metric name too long");
    put_u16(out, static_cast<std::uint16_t>(name.size()));
    out += name;
    put_f64(out, value);
  }
  return out;
}

RunRecord decode_record(std::string_view bytes) {
  wire::Reader in{bytes};
  in.need(sizeof kMagic);
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    throw CodecError("not a RunRecord (bad magic)");
  in.pos = sizeof kMagic;
  const std::uint16_t version = in.u16();
  if (version != kRecordCodecVersion)
    throw CodecError("RunRecord codec version " + std::to_string(version) +
                     " unsupported (this build speaks " +
                     std::to_string(kRecordCodecVersion) + ")");
  RunRecord r;
  r.point = in.u32();
  r.ordinal = in.u32();
  r.seed = in.u64();
  r.digest = in.u64();
  if (in.u8() != 0) {
    metrics::AttackerReport a;
    metrics::visit_attacker_fields(a, [&in](const char*, auto& v) {
      using T = std::decay_t<decltype(v)>;
      if constexpr (std::is_same_v<T, double>) v = in.f64();
      else if constexpr (std::is_same_v<T, std::uint32_t>) v = in.u32();
      else v = in.u64();
    });
    r.attacker = a;
  }
  const std::uint32_t n = in.u32();
  // Every value needs >= 10 bytes; reject counts the remaining bytes cannot
  // possibly satisfy before reserving anything.
  if (n > (bytes.size() - in.pos) / 10) throw CodecError("record truncated");
  r.values.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint16_t len = in.u16();
    std::string name = in.str(len);
    const double value = in.f64();
    r.values.emplace_back(std::move(name), value);
  }
  if (in.pos != bytes.size()) throw CodecError("trailing bytes after record");
  return r;
}

std::string frame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) throw CodecError("frame payload too large");
  std::string out;
  out.reserve(4 + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
  return out;
}

bool take_frame(std::string& buffer, std::string& payload) {
  if (buffer.size() < 4) return false;
  wire::Reader in{buffer};
  const std::uint32_t len = in.u32();
  if (len > kMaxFrameBytes) throw CodecError("frame length prefix corrupt");
  if (buffer.size() < 4 + static_cast<std::size_t>(len)) return false;
  payload.assign(buffer, 4, len);
  buffer.erase(0, 4 + static_cast<std::size_t>(len));
  return true;
}

}  // namespace bng::runner
