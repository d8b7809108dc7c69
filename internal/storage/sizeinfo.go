package storage

// SizeInfo is a bytes-on-disk breakdown of a database, computed by
// walking the heap chains and index trees. Byte figures are page counts
// times the on-disk slot size, so they sum (with the meta page, the
// catalog and any free or transient pages) to the file size.
type SizeInfo struct {
	// PageSize is the on-disk slot size in bytes.
	PageSize int `json:"page_size"`
	// Codec names the page compression codec.
	Codec string `json:"codec,omitempty"`
	// TotalPages and TotalBytes cover the whole file.
	TotalPages uint32 `json:"total_pages"`
	TotalBytes uint64 `json:"total_bytes"`
	// HeapPages/HeapBytes cover the node-record heap.
	HeapPages uint32 `json:"heap_pages"`
	HeapBytes uint64 `json:"heap_bytes"`
	// Index figures cover the three B+trees; IndexPages/IndexBytes are
	// their sum.
	LocatorPages uint32 `json:"locator_pages"`
	TagPages     uint32 `json:"tag_pages"`
	ValuePages   uint32 `json:"value_pages"`
	IndexPages   uint32 `json:"index_pages"`
	IndexBytes   uint64 `json:"index_bytes"`
	// TagCells/ValueCells are leaf cell counts, one per posting block.
	TagCells   uint64 `json:"tag_cells"`
	ValueCells uint64 `json:"value_cells"`
}

// SizeInfo measures the snapshot's on-disk footprint. It fetches every
// heap and index page through the buffer pool, so it is a reporting
// call, not a hot-path one; run it before ResetStats if the subsequent
// measurement should start from zero counters.
func (sn *Snapshot) SizeInfo() (SizeInfo, error) {
	st := sn.db.st
	slot := uint64(st.SlotSize())
	info := SizeInfo{
		PageSize:   st.SlotSize(),
		Codec:      st.CodecName(),
		TotalPages: st.NumPages(),
	}
	info.TotalBytes = uint64(info.TotalPages) * slot

	var err error
	if info.HeapPages, err = sn.heap.Pages(); err != nil {
		return info, err
	}
	info.HeapBytes = uint64(info.HeapPages) * slot

	loc, err := sn.locator.PageStats()
	if err != nil {
		return info, err
	}
	tag, err := sn.tagIdx.PageStats()
	if err != nil {
		return info, err
	}
	info.LocatorPages = loc.Pages
	info.TagPages = tag.Pages
	info.TagCells = tag.Cells
	if sn.valIdx != nil {
		val, err := sn.valIdx.PageStats()
		if err != nil {
			return info, err
		}
		info.ValuePages = val.Pages
		info.ValueCells = val.Cells
	}
	info.IndexPages = info.LocatorPages + info.TagPages + info.ValuePages
	info.IndexBytes = uint64(info.IndexPages) * slot
	return info, nil
}

// SizeInfo is the pin-per-call form of Snapshot.SizeInfo.
func (db *DB) SizeInfo() (SizeInfo, error) {
	sn := db.Snapshot()
	defer sn.Close()
	return sn.SizeInfo()
}
