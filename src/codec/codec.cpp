#include "codec/codec.hpp"

namespace twostep::codec {

void Writer::put_string(std::string_view s) {
  put_i64(static_cast<std::int64_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

std::span<const std::uint8_t> Reader::get_bytes() {
  const std::int64_t len = get_i64();
  if (!ok_ || len < 0 || static_cast<std::uint64_t>(len) > data_.size() - pos_) {
    ok_ = false;
    return {};
  }
  const auto out = data_.subspan(pos_, static_cast<std::size_t>(len));
  pos_ += out.size();
  return out;
}

std::string Reader::get_string() {
  const auto bytes = get_bytes();
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

std::span<const std::uint8_t> Reader::get_rest() {
  if (!ok_) return {};
  const auto out = data_.subspan(pos_);
  pos_ = data_.size();
  return out;
}

std::vector<std::uint8_t> encode_batch(const rsm::Msg& m) {
  Writer w;
  write_tagged<rsm::BatchContentMsg, rsm::BatchFetchMsg>(w, m);
  return std::move(w).take();
}

std::optional<rsm::Msg> decode_batch(Bytes b) {
  Reader r{b};
  rsm::Msg m;
  read_tagged<rsm::BatchContentMsg, rsm::BatchFetchMsg>(r, m);
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> encode_config(const rsm::Msg& m) {
  Writer w;
  write_tagged<rsm::ConfigChangeMsg, rsm::ConfigFetchMsg>(w, m);
  return std::move(w).take();
}

std::optional<rsm::Msg> decode_config(Bytes b) {
  Reader r{b};
  rsm::Msg m;
  read_tagged<rsm::ConfigChangeMsg, rsm::ConfigFetchMsg>(r, m);
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

}  // namespace twostep::codec
