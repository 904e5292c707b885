#include "fis/io.h"

#include <fstream>
#include <sstream>

#include "util/failpoint.h"
#include "util/text.h"

namespace diffc {

std::string BasketsToText(const BasketList& b) {
  std::string out = "# diffc basket list\nitems ";
  out += std::to_string(b.num_items());
  out += '\n';
  for (Mask basket : b.baskets()) {
    const std::size_t start = out.size();
    ForEachBit(basket, [&](int item) {
      if (out.size() > start) out += ' ';
      out += std::to_string(item);
    });
    if (out.size() == start) out += '-';  // Explicit marker for the empty basket.
    out += '\n';
  }
  return out;
}

Result<BasketList> BasketsFromText(const std::string& text) {
  if (DIFFC_FAILPOINT("fis/parse-baskets")) {
    return Status::Internal("failpoint fis/parse-baskets: basket parse failed");
  }
  int num_items = -1;
  std::vector<Mask> baskets;
  for (const std::string& raw : Split(text, '\n')) {
    std::string_view line = Trim(raw);
    if (line.empty() || line.front() == '#') continue;
    if (line.rfind("items", 0) == 0) {
      std::string count(Trim(line.substr(5)));
      try {
        num_items = std::stoi(count);
      } catch (...) {
        return Status::InvalidArgument("bad items header: " + std::string(line));
      }
      continue;
    }
    if (num_items < 0) {
      return Status::InvalidArgument("basket line before 'items N' header");
    }
    if (line == "-") {
      baskets.push_back(0);
      continue;
    }
    Mask basket = 0;
    for (const std::string& token : Split(line, ' ')) {
      std::string_view t = Trim(token);
      if (t.empty()) continue;
      int item;
      try {
        item = std::stoi(std::string(t));
      } catch (...) {
        return Status::InvalidArgument("bad item id: " + std::string(t));
      }
      if (item < 0 || item >= num_items) {
        return Status::OutOfRange("item " + std::to_string(item) +
                                  " outside universe of " + std::to_string(num_items));
      }
      basket |= Mask{1} << item;
    }
    baskets.push_back(basket);
  }
  if (num_items < 0) return Status::InvalidArgument("missing 'items N' header");
  return BasketList::Make(num_items, std::move(baskets));
}

Status SaveBaskets(const BasketList& b, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  out << BasketsToText(b);
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Result<BasketList> LoadBaskets(const std::string& path) {
  if (DIFFC_FAILPOINT("fis/load-baskets")) {
    return Status::NotFound("failpoint fis/load-baskets: cannot open: " + path);
  }
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return BasketsFromText(buffer.str());
}

}  // namespace diffc
