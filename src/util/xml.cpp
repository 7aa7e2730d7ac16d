#include "util/xml.hpp"

#include <cctype>

#include "util/error.hpp"

namespace sdft {

const xml_node* xml_node::child(const std::string& tag_name) const {
  for (const auto& c : children) {
    if (c.tag == tag_name) return &c;
  }
  return nullptr;
}

std::vector<const xml_node*> xml_node::children_of(
    const std::string& tag_name) const {
  std::vector<const xml_node*> out;
  for (const auto& c : children) {
    if (c.tag == tag_name) out.push_back(&c);
  }
  return out;
}

const std::string& xml_node::attribute(const std::string& name) const {
  auto it = attributes.find(name);
  require_model(it != attributes.end(),
                "xml: element <" + tag + "> lacks attribute '" + name + "'");
  return it->second;
}

namespace {

class xml_parser {
 public:
  explicit xml_parser(const std::string& text) : text_(text) {}

  xml_node parse_document() {
    skip_misc();
    xml_node root = parse_element();
    skip_misc();
    if (pos_ != text_.size()) fail("trailing content after root element");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw model_error("xml parse error at offset " + std::to_string(pos_) +
                      ": " + what);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool starts_with(const char* s) const {
    return text_.compare(pos_, std::char_traits<char>::length(s), s) == 0;
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  /// Skips whitespace, comments, processing instructions and doctypes.
  void skip_misc() {
    for (;;) {
      skip_whitespace();
      if (starts_with("<!--")) {
        const auto end = text_.find("-->", pos_ + 4);
        if (end == std::string::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else if (starts_with("<?") || starts_with("<!")) {
        const auto end = text_.find('>', pos_);
        if (end == std::string::npos) fail("unterminated declaration");
        pos_ = end + 1;
      } else {
        return;
      }
    }
  }

  std::string parse_name() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
          c == '_' || c == ':' || c == '.') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a name");
    return text_.substr(start, pos_ - start);
  }

  std::string parse_attribute_value() {
    const char quote = peek();
    if (quote != '"' && quote != '\'') fail("expected quoted value");
    ++pos_;
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != quote) {
      if (text_[pos_] == '&') {
        if (starts_with("&amp;")) {
          value += '&';
          pos_ += 5;
        } else if (starts_with("&lt;")) {
          value += '<';
          pos_ += 4;
        } else if (starts_with("&gt;")) {
          value += '>';
          pos_ += 4;
        } else if (starts_with("&quot;")) {
          value += '"';
          pos_ += 6;
        } else if (starts_with("&apos;")) {
          value += '\'';
          pos_ += 6;
        } else {
          fail("unsupported entity");
        }
      } else {
        value += text_[pos_++];
      }
    }
    if (pos_ >= text_.size()) fail("unterminated attribute value");
    ++pos_;  // closing quote
    return value;
  }

  xml_node parse_element() {
    if (peek() != '<') fail("expected '<'");
    // Each level costs a stack frame of this recursive descent: a hostile
    // file nested 200k deep would overflow the stack.
    if (depth_ == xml_max_depth) {
      fail("elements nested deeper than " + std::to_string(xml_max_depth) +
           " levels");
    }
    ++depth_;
    ++pos_;
    xml_node node;
    node.tag = parse_name();
    for (;;) {
      skip_whitespace();
      const char c = peek();
      if (c == '/') {
        if (!starts_with("/>")) fail("expected '/>'");
        pos_ += 2;
        --depth_;
        return node;  // self-closing
      }
      if (c == '>') {
        ++pos_;
        break;
      }
      const std::string name = parse_name();
      skip_whitespace();
      if (peek() != '=') fail("expected '=' after attribute name");
      ++pos_;
      skip_whitespace();
      node.attributes[name] = parse_attribute_value();
    }
    // Children until the matching close tag. Text content is ignored.
    for (;;) {
      skip_misc();
      if (starts_with("</")) {
        pos_ += 2;
        const std::string closing = parse_name();
        if (closing != node.tag) {
          fail("mismatched close tag '" + closing + "' for <" + node.tag +
               ">");
        }
        skip_whitespace();
        if (peek() != '>') fail("expected '>' in close tag");
        ++pos_;
        --depth_;
        return node;
      }
      if (peek() == '<') {
        node.children.push_back(parse_element());
      } else if (pos_ >= text_.size()) {
        fail("unterminated element <" + node.tag + ">");
      } else {
        ++pos_;  // skip text content
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open elements around pos_
};

}  // namespace

xml_node parse_xml(const std::string& text) {
  return xml_parser(text).parse_document();
}

std::string xml_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace sdft
