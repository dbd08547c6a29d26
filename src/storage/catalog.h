// Catalog: the namespace of tables owned by a Database instance.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/table.h"
#include "util/result.h"
#include "util/status.h"

namespace aidx {

/// Owns tables and resolves them by name.
///
/// Pointer stability is part of the contract: a Table* returned by
/// CreateTable/GetTable stays valid until that table is dropped (tables are
/// heap-allocated; rehashing or moving the catalog never relocates them).
/// Table-backed sideways crackers and other cached structures hold these
/// pointers across queries and DML.
class Catalog {
 public:
  Catalog() = default;
  AIDX_DEFAULT_MOVE_ONLY(Catalog);

  /// Registers a table; fails if the name is taken.
  Status AddTable(std::unique_ptr<Table> table);

  /// Creates an empty table and returns it for population.
  Result<Table*> CreateTable(std::string name);

  Result<Table*> GetTable(std::string_view name) const;

  /// Drops a table; fails when absent.
  Status DropTable(std::string_view name);

  std::vector<std::string> TableNames() const;
  std::size_t size() const { return tables_.size(); }

 private:
  std::unordered_map<std::string, std::unique_ptr<Table>, NameHash, std::equal_to<>>
      tables_;
};

}  // namespace aidx
