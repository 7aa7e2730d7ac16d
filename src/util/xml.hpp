#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

namespace sdft {

/// Minimal XML element tree, sufficient for the Open-PSA MEF subset this
/// library exchanges: elements, attributes, nesting, comments and
/// processing instructions (skipped). Text content, namespaces, entities
/// and CDATA are not supported — the MEF fault-tree constructs are purely
/// attribute-based.
struct xml_node {
  std::string tag;
  std::unordered_map<std::string, std::string> attributes;
  std::vector<xml_node> children;

  /// First child with the given tag, or nullptr.
  const xml_node* child(const std::string& tag_name) const;

  /// All children with the given tag.
  std::vector<const xml_node*> children_of(const std::string& tag_name) const;

  /// Attribute value; throws model_error when absent.
  const std::string& attribute(const std::string& name) const;

  bool has_attribute(const std::string& name) const {
    return attributes.find(name) != attributes.end();
  }
};

/// Deepest element nesting parse_xml() accepts (the root counts as one);
/// deeper input is a parse error. Open-PSA files nest a few levels per
/// formula.
inline constexpr std::size_t xml_max_depth = 512;

/// Parses one XML document (a single root element). Throws model_error
/// with a character offset on malformed input.
xml_node parse_xml(const std::string& text);

/// Escapes &, <, >, " for attribute values.
std::string xml_escape(const std::string& value);

}  // namespace sdft
