// PPROX-LAYER: shared
#include "pprox/message.hpp"

#include <array>
#include <cstring>

#include "crypto/ct.hpp"
#include "json/json.hpp"

namespace pprox {

const std::string& pad_item_name(std::size_t index) {
  // The pseudo-item names are protocol constants: build them once instead of
  // re-running std::to_string + concatenation for every padded response.
  static const auto kNames = [] {
    std::array<std::string, kMaxRecommendations> names;
    for (std::size_t i = 0; i < names.size(); ++i) {
      names[i] = kPadItemPrefix + std::to_string(i);
    }
    return names;
  }();
  return kNames[index % kMaxRecommendations];
}

Result<Bytes> pad_identifier(std::string_view id) {
  if (id.size() > kMaxIdLength) {
    return Error::invalid("identifier longer than " +
                          std::to_string(kMaxIdLength) + " bytes");
  }
  Bytes block(kIdBlockSize, 0);
  block[0] = static_cast<std::uint8_t>(id.size() >> 8);
  block[1] = static_cast<std::uint8_t>(id.size());
  std::memcpy(block.data() + 2, id.data(), id.size());
  return block;
}

Result<std::string> unpad_identifier(ByteView block) {
  if (block.size() != kIdBlockSize) {
    return Error::parse("identifier block has wrong size");
  }
  const std::size_t len =
      (static_cast<std::size_t>(block[0]) << 8) | block[1];
  // PPROX-CT-OK(branch): unpadding happens exactly where the identifier is
  // deliberately released (client, or LRS after declassify); its length is
  // part of that release, and the range check reveals only the validity bit
  // the error response exposes anyway. The padding scan below stays ct.
  if (len > kMaxIdLength) return Error::parse("identifier length corrupt");
  // Verify the zero padding in constant time: a decrypted pseudonym block is
  // secret-derived, and rejecting it at the position of the first garbage
  // byte would leak where the plaintext stops. This also rejects malleable
  // blocks whose tail was tampered with.
  if (!crypto::ct_is_zero(block.subspan(2 + len))) {
    return Error::parse("identifier padding corrupt");
  }
  return std::string(reinterpret_cast<const char*>(block.data()) + 2, len);
}

std::vector<std::string> pad_recommendations(std::vector<std::string> items) {
  if (items.size() > kMaxRecommendations) items.resize(kMaxRecommendations);
  std::size_t pad_index = 0;
  while (items.size() < kMaxRecommendations) {
    items.push_back(pad_item_name(pad_index++));
  }
  return items;
}

std::vector<std::string> strip_pad_items(std::vector<std::string> items) {
  const std::string prefix = kPadItemPrefix;
  std::erase_if(items, [&prefix](const std::string& item) {
    return item.compare(0, prefix.size(), prefix) == 0;
  });
  return items;
}

Result<Bytes> encode_response_block(const std::vector<std::string>& items) {
  json::JsonArray arr;
  for (const auto& item : items) arr.emplace_back(item);
  std::string text = json::JsonValue(std::move(arr)).dump();
  if (text.size() > kResponseBlockSize) {
    return Error::invalid("recommendation list exceeds response block");
  }
  text.resize(kResponseBlockSize, ' ');  // JSON parsers ignore the padding
  return to_bytes(text);
}

Result<std::vector<std::string>> decode_response_block(ByteView block) {
  const auto doc = json::parse(to_string(block));
  if (!doc.ok()) return doc.error();
  if (!doc.value().is_array()) return Error::parse("response block not a list");
  std::vector<std::string> items;
  for (const auto& entry : doc.value().as_array()) {
    if (!entry.is_string()) return Error::parse("non-string item in list");
    items.push_back(entry.as_string());
  }
  return items;
}

}  // namespace pprox
